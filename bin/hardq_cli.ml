(* hardq — command-line front end: evaluate hard CQs over the bundled
   synthetic RIM-PPDs, run Count-Session / Most-Probable-Session, and
   sample from Mallows models. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let seed_arg =
  let doc = "Random seed (controls both data generation and sampling)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let dataset_arg =
  let doc =
    "Dataset to generate: $(b,polls) (election polls, Figure 1), \
     $(b,movielens) (movie catalog surrogate) or $(b,crowdrank) (crowd-worker \
     surrogate)."
  in
  Arg.(
    value
    & opt (enum [ ("polls", `Polls); ("movielens", `Movielens); ("crowdrank", `Crowdrank) ]) `Polls
    & info [ "dataset" ] ~docv:"NAME" ~doc)

let size_arg =
  let doc = "Scale of the generated dataset (candidates/movies and sessions)." in
  Arg.(value & opt int 12 & info [ "size" ] ~docv:"N" ~doc)

let sessions_arg =
  let doc = "Number of sessions (voters/workers) to generate." in
  Arg.(value & opt int 100 & info [ "sessions" ] ~docv:"N" ~doc)

let solver_conv =
  let parse s =
    match Hardq.Solver.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t = Format.pp_print_string ppf (Hardq.Solver.to_string t) in
  Arg.conv (parse, print)

let solver_arg =
  let doc =
    "Solver: $(b,auto), $(b,two-label), $(b,bipartite), $(b,bipartite-basic), \
     $(b,general), $(b,brute), $(b,rejection), $(b,mis-amp-lite), \
     $(b,mis-amp-adaptive), $(b,mis-amp)."
  in
  Arg.(
    value
    & opt solver_conv (Hardq.Solver.Exact `Auto)
    & info [ "solver" ] ~docv:"SOLVER" ~doc)

let jobs_arg =
  let doc =
    "Domains to evaluate with (0 = one per available core). Results are \
     bit-identical whatever the setting."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Memoize per-session inference results (the paper's grouping \
             optimization, persistent across queries of one run)." in
  Arg.(value & opt bool true & info [ "cache" ] ~docv:"BOOL" ~doc)

let intra_arg =
  let doc =
    "Let each solver call fan its own work (inclusion-exclusion terms, DP \
     layers, enumeration chunks) across the --jobs pool, in addition to the \
     across-sessions fan-out. Results are bit-identical either way."
  in
  Arg.(value & opt bool true & info [ "intra" ] ~docv:"BOOL" ~doc)

let parallelism_of intra = if intra then `Intra else `Inter

let kernel_conv =
  let parse s =
    match Hardq.Kernel.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t = Format.pp_print_string ppf (Hardq.Kernel.to_string t) in
  Arg.conv (parse, print)

let kernel_arg =
  let doc =
    "DP kernel of the exact solvers: $(b,flat) (arena-indexed, GC-free \
     inner loops; the default) or $(b,boxed) (the reference layout). \
     Answers are byte-identical either way."
  in
  Arg.(
    value
    & opt kernel_conv Hardq.Kernel.default
    & info [ "kernel" ] ~docv:"KERNEL" ~doc)

let budget_arg =
  let doc = "CPU-seconds budget per solver invocation (0 = unlimited)." in
  Arg.(value & opt float 0. & info [ "budget" ] ~docv:"SECONDS" ~doc)

(* A shard count: an integer >= 1, anything else is a usage error. *)
let shards_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid shard count %S, expected an integer >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let shards_arg =
  let doc =
    "Session partition count, at least 1 (1 = unsharded). The engine \
     places the query's sessions on that many partitions, runs them on \
     its domain pool through its sub-answer store and merges the \
     per-session answers (two-phase bound pruning for topk). Answers \
     are bit-identical at any shard count."
  in
  Arg.(value & opt shards_conv 1 & info [ "shards" ] ~docv:"N" ~doc)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the engine's execution-statistics footer.")

let metrics_json_arg =
  let doc =
    "Enable observability counters and write the run's metrics snapshot \
     (one JSON object: per-solver DP states, prune counts, sampler draws, \
     engine cache activity) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"PATH" ~doc)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record engine spans (compile/group/solve/bounds/aggregate) and \
           print the span tree to stderr.")

(* Run [f] with observability configured by the flags, then emit the
   snapshot / trace — also on failure exits, so a budget-exhausted run
   still reports how far it got. *)
let with_obs metrics_json trace f =
  if Option.is_some metrics_json then Obs.enable ();
  if trace then Obs.enable_tracing ();
  let code = f () in
  (match metrics_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Obs.json_of_snapshot
           ~extra:[ ("schema", "\"hardq-metrics/1\"") ]
           (Obs.snapshot ()));
      output_char oc '\n';
      close_out oc);
  if trace then Format.eprintf "%a" Obs.pp_trace ();
  code

(* [--jobs 0] = engine default (one domain per core) = Config.default. *)
let engine_config ?(shards = 1) jobs cache kernel =
  let cfg = Engine.Config.(default |> with_cache cache |> with_kernel kernel) in
  let cfg = Engine.Config.with_shards shards cfg in
  if jobs <= 0 then cfg else Engine.Config.with_jobs jobs cfg

let print_stats show (resp : Engine.Response.t) =
  if show then Format.printf "%a@." Engine.Response.pp_stats resp.Engine.Response.stats

let query_arg =
  let doc =
    "The conjunctive query, e.g. 'Q() :- P(_, _; x; y), C(x, \"D\", _, _, e, \
     _), C(y, \"R\", _, _, e, _).'. Defaults to the dataset's showcase query."
  in
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"CQ" ~doc)

let make_db dataset size sessions seed =
  match dataset with
  | `Polls ->
      ( Datasets.Polls.generate ~n_candidates:size ~n_voters:sessions ~seed (),
        Datasets.Polls.query_two_label )
  | `Movielens ->
      ( Datasets.Movielens.generate ~n_movies:(max size 20)
          ~n_components:(min sessions 16) ~seed (),
        Datasets.Movielens.query_fig14 )
  | `Crowdrank ->
      ( Datasets.Crowdrank.generate ~n_workers:sessions ~seed (),
        Datasets.Crowdrank.query_fig15 )

(* One line naming the DP state cap a solver ran into; exit status 1. *)
let state_explosion table cap =
  Format.eprintf
    "budget exhausted: %s passed its cap of %d DP states; pick a cheaper \
     solver (e.g. --solver mis-amp-lite)@."
    table cap;
  1

let with_query dataset size sessions seed query f =
  let db, default_q = make_db dataset size sessions seed in
  let qtext = Option.value ~default:default_q query in
  match Ppd.Parser.parse_result qtext with
  | Error msg ->
      Format.eprintf "parse error: %s@." msg;
      1
  | Ok q -> (
      match f db q with
      | () -> 0
      | exception Ppd.Compile.Unsupported msg ->
          Format.eprintf "unsupported query: %s@." msg;
          1
      | exception Util.Timer.Out_of_time ->
          Format.eprintf
            "budget exhausted: a solver invocation ran out of its --budget \
             allowance; raise it or pick a cheaper solver@.";
          1
      | exception Hardq.Dp_table.State_explosion { table; cap } ->
          state_explosion table cap)

(* ------------------------------------------------------------------ *)
(* eval                                                                *)
(* ------------------------------------------------------------------ *)

let eval_cmd =
  let run dataset size sessions seed query solver jobs cache intra kernel
      budget shards stats verbose metrics_json trace =
    with_obs metrics_json trace @@ fun () ->
    with_query dataset size sessions seed query (fun db q ->
        Format.printf "query: %a@." Ppd.Query.pp q;
        Format.printf "V+ = {%s}, itemwise: %b@."
          (String.concat ", " (Ppd.Compile.v_plus db q))
          (Ppd.Compile.is_itemwise db q);
        Engine.with_engine (engine_config ~shards jobs cache kernel)
          (fun engine ->
            let req =
              Engine.Request.make ~solver ~budget ~seed
                ~parallelism:(parallelism_of intra) db q
            in
            let resp = Engine.eval engine req in
            let probs = resp.Engine.Response.per_session in
            if verbose then
              List.iter
                (fun ((s : Ppd.Database.session), p) ->
                  Format.printf "  %-18s %.6f@."
                    (String.concat "/"
                       (Array.to_list
                          (Array.map Ppd.Value.to_string s.Ppd.Database.key)))
                    p)
                probs;
            let count = List.fold_left (fun acc (_, p) -> acc +. p) 0. probs in
            Format.printf "Pr(Q | D)    = %.6f@."
              (Engine.Response.answer_float resp);
            Format.printf "E[count(Q)]  = %.4f over %d sessions@." count
              (List.length probs);
            print_stats stats resp))
  in
  let verbose =
    Arg.(value & flag & info [ "per-session"; "v" ] ~doc:"Print per-session probabilities.")
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a Boolean CQ and its Count-Session aggregate")
    Term.(
      const run $ dataset_arg $ size_arg $ sessions_arg $ seed_arg $ query_arg
      $ solver_arg $ jobs_arg $ cache_arg $ intra_arg $ kernel_arg $ budget_arg
      $ shards_arg $ stats_arg $ verbose $ metrics_json_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* topk                                                                *)
(* ------------------------------------------------------------------ *)

let topk_cmd =
  let run dataset size sessions seed query solver jobs cache intra kernel
      budget shards stats k strategy metrics_json trace =
    with_obs metrics_json trace @@ fun () ->
    with_query dataset size sessions seed query (fun db q ->
        Engine.with_engine (engine_config ~shards jobs cache kernel)
          (fun engine ->
            let req =
              Engine.Request.make
                ~task:(Engine.Request.top_k ~strategy k)
                ~solver ~budget ~seed ~parallelism:(parallelism_of intra) db q
            in
            let resp = Engine.eval engine req in
            Format.printf
              "top-%d sessions (%d solver calls, bounds %.3fs, solve %.3fs):@." k
              resp.Engine.Response.stats.Engine.Response.solver_calls
              resp.Engine.Response.stats.Engine.Response.bound_s
              resp.Engine.Response.stats.Engine.Response.solve_s;
            List.iter
              (fun ((s : Ppd.Database.session), p) ->
                Format.printf "  %-18s %.6f@."
                  (String.concat "/"
                     (Array.to_list
                        (Array.map Ppd.Value.to_string s.Ppd.Database.key)))
                  p)
              (Engine.Response.ranked resp);
            print_stats stats resp))
  in
  let k_arg = Arg.(value & opt int 5 & info [ "k" ] ~docv:"K" ~doc:"How many sessions.") in
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("naive", `Naive); ("1-edge", `Edges 1); ("2-edge", `Edges 2) ]) (`Edges 1)
      & info [ "strategy" ] ~docv:"S" ~doc:"naive, 1-edge or 2-edge.")
  in
  Cmd.v
    (Cmd.info "topk" ~doc:"Most-Probable-Session query")
    Term.(
      const run $ dataset_arg $ size_arg $ sessions_arg $ seed_arg $ query_arg
      $ solver_arg $ jobs_arg $ cache_arg $ intra_arg $ kernel_arg $ budget_arg
      $ shards_arg $ stats_arg $ k_arg $ strategy_arg $ metrics_json_arg
      $ trace_arg)

(* ------------------------------------------------------------------ *)
(* answers                                                             *)
(* ------------------------------------------------------------------ *)

let answers_cmd =
  let run dataset size sessions seed query solver k =
    with_query dataset size sessions seed query (fun db q ->
        match Ppd.Answers.top ~solver ~k db q (Util.Rng.make seed) with
        | answers ->
            Format.printf "query: %a@." Ppd.Query.pp q;
            List.iter
              (fun (a : Ppd.Answers.answer) ->
                Format.printf "  (%s)  confidence %.6f@."
                  (String.concat ", "
                     (List.map Ppd.Value.to_string a.Ppd.Answers.values))
                  a.Ppd.Answers.confidence)
              answers
        | exception Ppd.Answers.Unsupported msg ->
            Format.eprintf "unsupported: %s@." msg)
  in
  let k_arg =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Show the K most probable answers.")
  in
  Cmd.v
    (Cmd.info "answers"
       ~doc:"Evaluate a CQ with head variables: answer tuples with confidences")
    Term.(
      const run $ dataset_arg $ size_arg $ sessions_arg $ seed_arg $ query_arg
      $ solver_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* query — the declarative language frontend                           *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let run dataset size sessions seed text solver jobs cache intra kernel budget
      stats explain verbose target_ci deadline_ms stream metrics_json trace =
    with_obs metrics_json trace @@ fun () ->
    let slo =
      match (target_ci, deadline_ms) with
      | Some _, Some _ -> Error "--target-ci and --deadline are mutually exclusive"
      | Some w, None when w <= 0. -> Error "--target-ci must be positive"
      | Some w, None -> Ok (Some (`Ci_width w))
      | None, Some ms when ms <= 0. -> Error "--deadline must be positive"
      | None, Some ms -> Ok (Some (`Deadline (ms /. 1000.)))
      | None, None -> Ok None
    in
    match slo with
    | Error msg ->
        Format.eprintf "%s@." msg;
        1
    | Ok slo -> (
    let db, default_q = make_db dataset size sessions seed in
    let text = Option.value ~default:default_q text in
    match Lang.Parser.parse text with
    | Error e ->
        Format.eprintf "parse error: %s@." (Lang.Ast.error_to_string e);
        1
    | Ok ast -> (
        let hint =
          if solver = Hardq.Solver.Exact `Auto then None else Some solver
        in
        match Plan.compile ?hint db ast with
        | exception Ppd.Compile.Unsupported msg ->
            Format.eprintf "unsupported query: %s@." msg;
            1
        | exception Ppd.Compile.Grounding_too_large msg ->
            Format.eprintf "grounding too large: %s@." msg;
            1
        | plan ->
            if explain then begin
              Format.printf "%s@." (Plan.explain plan);
              0
            end
            else
              Engine.with_engine (engine_config jobs cache kernel) (fun engine ->
                  let req =
                    Engine.Request.of_plan ~budget ~seed
                      ~parallelism:(parallelism_of intra) ?slo plan
                  in
                  (* [serve] without an SLO is exactly [eval]; with one, the
                     cost model may route onto the anytime sampler, whose
                     rounds surface here as --stream frames. *)
                  let on_frame (f : Hardq.Anytime.frame) =
                    if stream then
                      Format.printf
                        "frame %2d  draws %6d  estimate %.6f  ci [%.6f, %.6f]@."
                        f.Hardq.Anytime.round f.Hardq.Anytime.draws
                        f.Hardq.Anytime.estimate f.Hardq.Anytime.ci_lo
                        f.Hardq.Anytime.ci_hi
                  in
                  match Engine.serve engine ~on_frame req with
                  | exception Util.Timer.Out_of_time ->
                      Format.eprintf
                        "budget exhausted: a solver invocation ran out of its \
                         --budget allowance; raise it or pick a cheaper solver@.";
                      1
                  | exception Hardq.Dp_table.State_explosion { table; cap } ->
                      state_explosion table cap
                  | { Engine.response = resp; anytime } ->
                      if verbose then
                        List.iter
                          (fun ((s : Ppd.Database.session), p) ->
                            Format.printf "  %-18s %.6f@."
                              (String.concat "/"
                                 (Array.to_list
                                    (Array.map Ppd.Value.to_string
                                       s.Ppd.Database.key)))
                              p)
                          resp.Engine.Response.per_session;
                      (match resp.Engine.Response.answer with
                      | Engine.Response.Probability p ->
                          Format.printf "Pr(Q | D)    = %.6f@." p
                      | Engine.Response.Expectation v ->
                          Format.printf "E[%s]  = %.6f@."
                            (match plan.Plan.task with
                            | Lang.Ast.Count -> "count(Q)"
                            | _ -> "aggregate")
                            v
                      | Engine.Response.Ranked ranked ->
                          List.iteri
                            (fun i ((s : Ppd.Database.session), p) ->
                              Format.printf "%2d. %-18s %.6f@." (i + 1)
                                (String.concat "/"
                                   (Array.to_list
                                      (Array.map Ppd.Value.to_string
                                         s.Ppd.Database.key)))
                                p)
                            ranked);
                      Format.printf "verdict: %s (%s)@."
                        (Plan.verdict_string plan.Plan.verdict)
                        (Plan.leaf_name plan.Plan.leaf);
                      (match anytime with
                      | None -> ()
                      | Some a ->
                          Format.printf
                            "anytime: %s after %d round(s), %d draw(s), ci \
                             [%.6f, %.6f] (width %.6f)@."
                            (match a.Engine.status with
                            | `Final -> "final"
                            | `Timeout -> "timeout"
                            | `Cancelled -> "cancelled")
                            a.Engine.rounds a.Engine.draws a.Engine.ci_lo
                            a.Engine.ci_hi
                            (a.Engine.ci_hi -. a.Engine.ci_lo));
                      print_stats stats resp;
                      0)))
  in
  let text_arg =
    let doc =
      "Query text, e.g. 'count possibly Q() :- prefers(\"A\", \"B\") or \
       rank(\"C\") <= 2.'. Same lexer and atoms as $(b,hardq eval)'s datalog, \
       so a --query text means the same here (bar keyword-named queries or \
       relations). Defaults to the dataset's showcase query."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let explain_arg =
    Arg.(
      value & flag
      & info [ "explain" ]
          ~doc:
            "Print the compiled plan, its tractability verdict and the \
             reasoning instead of evaluating.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "per-session"; "v" ] ~doc:"Print per-session probabilities.")
  in
  let target_ci_arg =
    let doc =
      "Accuracy SLO: keep sampling until the answer's confidence interval is \
       at most $(docv) wide. Hard-verdict queries stream anytime estimates; \
       tractable ones are still answered exactly. Mutually exclusive with \
       $(b,--deadline)."
    in
    Arg.(value & opt (some float) None & info [ "target-ci" ] ~docv:"W" ~doc)
  in
  let deadline_ms_arg =
    let doc =
      "Accuracy SLO: return the best estimate (and its confidence interval) \
       reachable within $(docv) milliseconds — expiry is a typed timeout \
       status with an answer, not an error. Mutually exclusive with \
       $(b,--target-ci)."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)
  in
  let stream_arg =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Print each anytime sampling round as a progress frame (round, \
             draws, estimate, confidence interval) as it tightens.")
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Evaluate a declarative query (preference sugar, rank atoms, \
          disjunction, aggregates, modals) through the tractability-aware \
          planner")
    Term.(
      const run $ dataset_arg $ size_arg $ sessions_arg $ seed_arg $ text_arg
      $ solver_arg $ jobs_arg $ cache_arg $ intra_arg $ kernel_arg $ budget_arg
      $ stats_arg $ explain_arg $ verbose $ target_ci_arg $ deadline_ms_arg
      $ stream_arg $ metrics_json_arg $ trace_arg)

(* ------------------------------------------------------------------ *)
(* sample                                                              *)
(* ------------------------------------------------------------------ *)

let sample_cmd =
  let run m phi n seed =
    let rng = Util.Rng.make seed in
    let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi in
    for _ = 1 to n do
      Format.printf "%a@." Prefs.Ranking.pp (Rim.Mallows.sample mal rng)
    done;
    0
  in
  let m_arg = Arg.(value & opt int 8 & info [ "m" ] ~docv:"M" ~doc:"Number of items.") in
  let phi_arg =
    Arg.(value & opt float 0.5 & info [ "phi" ] ~docv:"PHI" ~doc:"Mallows dispersion.")
  in
  let n_arg = Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Number of samples.") in
  Cmd.v
    (Cmd.info "sample" ~doc:"Sample rankings from a Mallows model")
    Term.(const run $ m_arg $ phi_arg $ n_arg $ seed_arg)

let () =
  let info =
    Cmd.info "hardq" ~version:"1.0.0"
      ~doc:"Hard queries over probabilistic preferences (RIM-PPD)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ eval_cmd; query_cmd; topk_cmd; answers_cmd; sample_cmd ]))

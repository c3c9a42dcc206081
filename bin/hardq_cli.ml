(* hardq — command-line front end: evaluate hard CQs over the bundled
   synthetic RIM-PPDs, run Count-Session / Most-Probable-Session, and
   sample from Mallows models.

   The evaluation subcommands are local clients of the server's request
   path: their flags become a [Server.Protocol.eval], the engine request
   comes from the server's registry ([Registry.request]: the dataset and
   its cached plan), and one executor, one error map and one response
   printer serve all four. *)

open Cmdliner
module Protocol = Server.Protocol

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
    & opt (enum (List.map (fun n -> (n, n)) Server.Registry.names)) "polls"
    & info [ "dataset" ] ~docv:"NAME" ~doc)

let size_arg =
  let doc =
    "Scale of the generated dataset (candidates or movies); the dataset's \
     default when absent, as in $(b,hardq-server)."
  in
  Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N" ~doc)

let sessions_arg =
  let doc =
    "Number of sessions (voters/workers) to generate; the dataset's default \
     when absent."
  in
  Arg.(value & opt (some int) None & info [ "sessions" ] ~docv:"N" ~doc)

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

let intra_arg =
  let doc =
    "Let each solver call fan its own work (inclusion-exclusion terms, DP \
     layers, enumeration chunks) across the --jobs pool, in addition to the \
     across-sessions fan-out. Results are bit-identical either way."
  in
  Arg.(value & opt bool true & info [ "intra" ] ~docv:"BOOL" ~doc)

let budget_arg =
  let doc = "CPU-seconds budget per solver invocation (0 = unlimited)." in
  Arg.(value & opt float 0. & info [ "budget" ] ~docv:"SECONDS" ~doc)

let shards_arg =
  let doc =
    "Session partition count, at least 1 (1 = unsharded). The engine \
     places the query's sessions on that many partitions, runs them on \
     its domain pool through its sub-answer store and merges the \
     per-session answers (two-phase bound pruning for top-k). Answers \
     are bit-identical at any shard count."
  in
  Arg.(value & opt Engine_flags.shards_conv 1 & info [ "shards" ] ~docv:"N" ~doc)

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print the engine's execution-statistics footer.")

let metrics_json_arg =
  let doc =
    "Write the run's metrics snapshot (one JSON object: per-solver DP \
     states, prune counts, sampler draws, engine cache activity) to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"PATH" ~doc)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record engine spans (compile/group/solve/bounds/aggregate) and \
           print the span tree to stderr.")

let query_arg =
  let doc =
    "The conjunctive query, e.g. 'Q() :- P(_, _; x; y), C(x, \"D\", _, _, e, \
     _), C(y, \"R\", _, _, e, _).'. Defaults to the dataset's showcase query."
  in
  Arg.(value & opt (some string) None & info [ "query"; "q" ] ~docv:"CQ" ~doc)

let per_session_arg =
  Arg.(
    value & flag
    & info [ "per-session"; "v" ] ~doc:"Print per-session probabilities.")

(* What every evaluation subcommand takes: the dataset spec, the request
   defaults and the engine configuration. *)
type common = {
  spec : Protocol.dataset_spec;
  solver : Hardq.Solver.t;
  seed : int;
  budget : float;
  parallelism : [ `Inter | `Intra ];
  config : Engine.Config.t;
  stats : bool;
  metrics_json : string option;
  trace : bool;
}

let common =
  let make dataset size sessions seed solver jobs intra kernel budget shards
      stats metrics_json trace =
    {
      spec = Protocol.dataset ?size ?sessions ~seed dataset;
      solver;
      seed;
      budget;
      parallelism = (if intra then `Intra else `Inter);
      config =
        {
          Engine.Config.(default |> with_kernel kernel |> with_shards shards) with
          jobs;
        };
      stats;
      metrics_json;
      trace;
    }
  in
  Term.(
    const make $ dataset_arg $ size_arg $ sessions_arg $ seed_arg $ solver_arg
    $ Engine_flags.jobs_arg $ intra_arg $ Engine_flags.kernel_arg $ budget_arg
    $ shards_arg $ stats_arg $ metrics_json_arg $ trace_arg)

(* The query text a subcommand runs: the flag's, or the dataset's
   showcase query. *)
let query_text c = function
  | Some text -> text
  | None -> Option.get (Server.Registry.showcase_query c.spec.Protocol.ds_name)

(* ------------------------------------------------------------------ *)
(* The error map                                                       *)
(* ------------------------------------------------------------------ *)

(* A failure typed like the server's error replies. *)
exception Failed of Protocol.error

let ok = function Ok v -> v | Error e -> raise (Failed e)

(* Every failure of an evaluation subcommand: one line on stderr, exit
   status 1. *)
let report exn =
  let e =
    match exn with
    | Failed e -> e
    | Ppd.Compile.Unsupported msg -> Protocol.error Protocol.Unsupported msg
    | Util.Timer.Out_of_time ->
        Protocol.error Protocol.Budget_exhausted
          "a solver invocation ran out of its --budget allowance; raise it or \
           pick a cheaper solver"
    | Hardq.Dp_table.State_explosion { table; cap } ->
        Protocol.error Protocol.Budget_exhausted
          (Printf.sprintf
             "%s passed its cap of %d DP states; pick a cheaper solver (e.g. \
              --solver mis-amp-lite)"
             table cap)
    | exn -> raise exn
  in
  (match e.Protocol.code with
  | Protocol.Bad_request -> Format.eprintf "%s@." e.Protocol.message
  | code ->
      Format.eprintf "%s: %s@."
        (match code with
        | Protocol.Query_parse_error -> "parse error"
        | Protocol.Unsupported -> "unsupported query"
        | Protocol.Budget_exhausted -> "budget exhausted"
        | code -> Protocol.error_code_to_string code)
        e.Protocol.message);
  1

(* ------------------------------------------------------------------ *)
(* The response printer                                                *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Served of Engine.Request.t * Engine.served
  | Explained of Plan.t
  | Answers of Ppd.Query.t * Ppd.Answers.answer list * Engine.Response.t list
      (* the head query, its ranked answers, each grounding's response *)

let session_name (s : Ppd.Database.session) =
  String.concat "/"
    (Array.to_list (Array.map Ppd.Value.to_string s.Ppd.Database.key))

let print_row (s, p) = Format.printf "  %-18s %.6f@." (session_name s) p

let print_frame (e : Protocol.eval) (f : Hardq.Anytime.frame) =
  if e.Protocol.stream then
    Format.printf "frame %2d  draws %6d  estimate %.6f  ci [%.6f, %.6f]@."
      f.Hardq.Anytime.round f.Hardq.Anytime.draws f.Hardq.Anytime.estimate
      f.Hardq.Anytime.ci_lo f.Hardq.Anytime.ci_hi

let print_stats c (resp : Engine.Response.t) =
  if c.stats then
    Format.printf "%a@." Engine.Response.pp_stats resp.Engine.Response.stats

(* A datalog [eval] prints its query, the Boolean probability and the
   session count; [topk] its ranking; a [query] text its answer, the
   plan's verdict and any anytime outcome; [answers] its tuples. *)
let print c (e : Protocol.eval) = function
  | Explained plan -> Format.printf "%s@." (Plan.explain plan)
  | Answers (q, answers, responses) ->
      Format.printf "query: %a@." Ppd.Query.pp q;
      List.iter
        (fun (a : Ppd.Answers.answer) ->
          Format.printf "  (%s)  confidence %.6f@."
            (String.concat ", " (List.map Ppd.Value.to_string a.Ppd.Answers.values))
            a.Ppd.Answers.confidence)
        answers;
      List.iter (print_stats c) responses
  | Served (req, { Engine.response = resp; anytime }) -> (
      let plan = req.Engine.Request.plan in
      (match (e.Protocol.query, resp.Engine.Response.answer) with
      | Protocol.Cq q, Engine.Response.Probability _ ->
          Format.printf "query: %a@." Ppd.Query.pp q;
          Format.printf "V+ = {%s}, itemwise: %b@."
            (String.concat ", " (Ppd.Compile.v_plus plan.Plan.db q))
            (Ppd.Compile.is_itemwise plan.Plan.db q)
      | _ -> ());
      if e.Protocol.per_session then
        List.iter print_row resp.Engine.Response.per_session;
      let stats = resp.Engine.Response.stats in
      (match (e.Protocol.query, resp.Engine.Response.answer, req.Engine.Request.task) with
      | Protocol.Cq _, Engine.Response.Probability p, _ ->
          let probs = resp.Engine.Response.per_session in
          Format.printf "Pr(Q | D)    = %.6f@." p;
          Format.printf "E[count(Q)]  = %.4f over %d sessions@."
            (List.fold_left (fun acc (_, p) -> acc +. p) 0. probs)
            (List.length probs)
      | Protocol.Cq _, Engine.Response.Ranked ranked, Engine.Request.Top_k { k; _ } ->
          Format.printf "top-%d sessions (%d solver calls, bounds %.3fs, solve %.3fs):@."
            k stats.Engine.Response.solver_calls stats.Engine.Response.bound_s
            stats.Engine.Response.solve_s;
          List.iter print_row ranked
      | _, Engine.Response.Probability p, _ -> Format.printf "Pr(Q | D)    = %.6f@." p
      | _, Engine.Response.Expectation v, _ ->
          Format.printf "E[%s]  = %.6f@."
            (match plan.Plan.task with
            | Lang.Ast.Count -> "count(Q)"
            | _ -> "aggregate")
            v
      | _, Engine.Response.Ranked ranked, _ ->
          List.iteri
            (fun i (s, p) -> Format.printf "%2d. %-18s %.6f@." (i + 1) (session_name s) p)
            ranked);
      (match e.Protocol.query with
      | Protocol.Cq _ -> ()
      | Protocol.Lang _ -> (
          Format.printf "verdict: %s (%s)@."
            (Plan.verdict_string plan.Plan.verdict)
            (Plan.leaf_name plan.Plan.leaf);
          match anytime with
          | None -> ()
          | Some a ->
              Format.printf
                "anytime: %s after %d round(s), %d draw(s), ci [%.6f, %.6f] \
                 (width %.6f)@."
                (match a.Engine.status with
                | `Final -> "final"
                | `Timeout -> "timeout"
                | `Cancelled -> "cancelled")
                a.Engine.rounds a.Engine.draws a.Engine.ci_lo a.Engine.ci_hi
                (a.Engine.ci_hi -. a.Engine.ci_lo)));
      print_stats c resp)

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)
(* ------------------------------------------------------------------ *)

(* The registry the server resolves datasets with, without its bounds on
   what a remote client may ask to synthesize. *)
let registry = Server.Registry.create ~max_size:max_int ~max_sessions:max_int ()

(* Run one subcommand: [build] turns its flags into an eval and a mode;
   every engine request comes from [Registry.request] on [registry].
   [`Serve] runs the request through
   [Engine.serve] (plain evaluation without an SLO, anytime frames with
   one), [`Explain] stops at the plan, and [`Answers (k, q)] grounds the
   head of [q] and evaluates every grounding in one engine batch. *)
let execute c build =
  if c.trace then Obs.enable_tracing ();
  let code =
    match
      let e, mode = build () in
      let request e =
        ok
          (Server.Registry.request registry ~budget:e.Protocol.budget
             ~parallelism:c.parallelism e)
      in
      match mode with
      | `Explain -> (e, Explained (request e).Engine.Request.plan)
      | `Serve ->
          let req = request e in
          Engine.with_engine c.config (fun engine ->
              (e, Served (req, Engine.serve engine ~on_frame:(print_frame e) req)))
      | `Answers (k, q) ->
          Engine.with_engine c.config (fun engine ->
              let responses = ref [] in
              let prob qs =
                let reqs =
                  List.map
                    (fun q -> request { e with Protocol.query = Protocol.Cq q })
                    qs
                in
                Array.to_list (Engine.eval_batch engine (Array.of_list reqs))
                |> List.map (function
                     | Ok resp ->
                         responses := resp :: !responses;
                         Engine.Response.answer_float resp
                     | Error exn -> raise exn)
              in
              let db = ok (Server.Registry.find registry e.Protocol.dataset) in
              let answers = Ppd.Answers.top ~k prob db q in
              (e, Answers (q, answers, List.rev !responses)))
    with
    | e, outcome ->
        print c e outcome;
        0
    | exception exn -> report exn
  in
  (* The snapshot and trace go out on failure exits too, so a
     budget-exhausted run still reports how far it got. *)
  (match c.metrics_json with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Obs.json_of_snapshot
           ~extra:[ ("schema", "\"hardq-metrics/1\"") ]
           (Obs.snapshot ()));
      output_char oc '\n';
      close_out oc);
  if c.trace then Format.eprintf "%a" Obs.pp_trace ();
  code

(* ------------------------------------------------------------------ *)
(* eval, topk, answers — datalog CQs                                   *)
(* ------------------------------------------------------------------ *)

(* A datalog subcommand's query: [--query] (or the showcase query)
   parsed as a CQ. *)
let cq c query =
  match Ppd.Parser.parse_result (query_text c query) with
  | Ok q -> q
  | Error msg -> raise (Failed (Protocol.error Protocol.Query_parse_error msg))

let cq_eval ?task ?(per_session = false) c q =
  Protocol.eval ?task ~solver:c.solver ~budget:c.budget ~seed:c.seed
    ~per_session c.spec q

let eval_cmd =
  let run c query per_session =
    execute c @@ fun () -> (cq_eval ~per_session c (cq c query), `Serve)
  in
  Cmd.v
    (Cmd.info "eval" ~doc:"Evaluate a Boolean CQ and its Count-Session aggregate")
    Term.(const run $ common $ query_arg $ per_session_arg)

let topk_cmd =
  let run c query k strategy =
    execute c @@ fun () ->
    (cq_eval ~task:(Engine.Request.top_k ~strategy k) c (cq c query), `Serve)
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
    Term.(const run $ common $ query_arg $ k_arg $ strategy_arg)

let answers_cmd =
  let run c query k =
    execute c @@ fun () ->
    let q = cq c query in
    (cq_eval c q, `Answers (k, q))
  in
  let k_arg =
    Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Show the K most probable answers.")
  in
  Cmd.v
    (Cmd.info "answers"
       ~doc:
         "Evaluate a CQ with head variables: answer tuples with confidences, \
          one engine batch over the head's groundings")
    Term.(const run $ common $ query_arg $ k_arg)

(* ------------------------------------------------------------------ *)
(* query — the declarative language frontend                           *)
(* ------------------------------------------------------------------ *)

let query_cmd =
  let run c text explain per_session target_ci deadline_ms stream =
    execute c @@ fun () ->
    let bad msg = raise (Failed (Protocol.error Protocol.Bad_request msg)) in
    (match (target_ci, deadline_ms) with
    | Some _, Some _ -> bad "--target-ci and --deadline are mutually exclusive"
    | Some w, None when w <= 0. -> bad "--target-ci must be positive"
    | None, Some ms when ms <= 0. -> bad "--deadline must be positive"
    | _ -> ());
    let e =
      match
        Protocol.eval_lang ~solver:c.solver ~budget:c.budget ~seed:c.seed
          ~per_session ?target_ci ?deadline_ms ~stream c.spec (query_text c text)
      with
      | Ok e -> e
      | Error msg -> raise (Failed (Protocol.error Protocol.Query_parse_error msg))
    in
    (e, if explain then `Explain else `Serve)
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
      const run $ common $ text_arg $ explain_arg $ per_session_arg
      $ target_ci_arg $ deadline_ms_arg $ stream_arg)

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

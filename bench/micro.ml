(* Bechamel microbenchmarks of the solver kernels and the ablations that
   DESIGN.md calls out:
   - Kendall-tau distance, RIM sampling, AMP sampling + density;
   - two-label vs bipartite vs basic-bipartite on the same union
     (the edge/pattern-pruning ablation);
   - balance-heuristic MIS vs plain per-proposal IS weighting. *)

open Bechamel
open Toolkit

let kernel_tests () =
  let rng = Util.Rng.make 7 in
  let m = 50 in
  let a = Prefs.Ranking.of_array (Util.Rng.permutation rng m) in
  let b = Prefs.Ranking.of_array (Util.Rng.permutation rng m) in
  let mal = Rim.Mallows.make ~center:a ~phi:0.3 in
  let model = Rim.Mallows.to_rim mal in
  let sub = Prefs.Ranking.of_list [ Prefs.Ranking.item_at a 40; Prefs.Ranking.item_at a 2 ] in
  let amp = Rim.Amp.of_subranking mal sub in
  let sample = Rim.Amp.sample amp (Util.Rng.make 3) in
  [
    Test.make ~name:"kendall_tau (m=50)" (Staged.stage (fun () -> Prefs.Ranking.kendall_tau a b));
    Test.make ~name:"rim_sample (m=50)" (Staged.stage (fun () -> Rim.Model.sample model rng));
    Test.make ~name:"amp_sample (m=50)" (Staged.stage (fun () -> Rim.Amp.sample amp rng));
    Test.make ~name:"amp_density (m=50)" (Staged.stage (fun () -> Rim.Amp.log_density amp sample));
    Test.make ~name:"mallows_log_prob (m=50)" (Staged.stage (fun () -> Rim.Mallows.log_prob mal sample));
  ]

let solver_tests () =
  (* One Benchmark-D-style two-label union evaluated by all three exact
     DPs: quantifies the pruning ablation (optimized vs basic bipartite). *)
  let inst =
    List.hd
      (Datasets.Bench_d.generate ~ms:[ 12 ] ~patterns_per_union:[ 2 ]
         ~items_per_label:[ 3 ] ~instances_per_combo:1 ~seed:9 ())
  in
  let model = Datasets.Instance.model inst in
  let lab = inst.Datasets.Instance.labeling in
  let u = inst.Datasets.Instance.union in
  [
    Test.make ~name:"two_label (m=12, z=2)" (Staged.stage (fun () -> Hardq.Two_label.prob model lab u));
    Test.make ~name:"bipartite-pruned (m=12, z=2)" (Staged.stage (fun () -> Hardq.Bipartite.prob model lab u));
    Test.make ~name:"bipartite-basic (m=12, z=2)" (Staged.stage (fun () -> Hardq.Bipartite.prob_basic model lab u));
  ]

let mis_tests () =
  (* Balance heuristic vs plain IS weighting at equal sample budget. *)
  let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity 10) ~phi:0.05 in
  let sub = Prefs.Ranking.of_list [ 9; 0 ] in
  let modals = Hardq.Modals.greedy_modals ~cap:4 ~sub ~center:(Prefs.Ranking.identity 10) () in
  let proposals =
    Array.of_list
      (List.map (fun (r, _) -> Rim.Amp.of_subranking (Rim.Mallows.recenter mal r) sub) modals)
  in
  let rng = Util.Rng.make 11 in
  [
    Test.make ~name:"mis-balance (d=4, n=100)"
      (Staged.stage (fun () ->
           Hardq.Mis.balance_estimate ~target:mal ~proposals ~n_per:100 rng));
    Test.make ~name:"is-plain (d=4, n=100)"
      (Staged.stage (fun () ->
           Hardq.Mis.plain_is_weights_estimate ~target:mal ~proposals ~n_per:100 rng));
  ]

let run_group name tests =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name [ Test.make_grouped ~name:"g" tests ]) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "  %s:\n" name;
  Hashtbl.iter
    (fun test_name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (t :: _) -> Printf.printf "    %-46s %12.1f ns/run\n" test_name t
      | _ -> Printf.printf "    %-46s (no estimate)\n" test_name)
    results

(* Accuracy ablation: sensitivity of MIS-AMP to the greedy-modal branching
   cap (Algorithm 5 branches on distance ties; the cap bounds |S|). *)
let modal_cap_ablation () =
  Printf.printf "  modal-cap sensitivity (rare event, phi=0.02, m=8):\n";
  let m = 8 in
  let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.02 in
  let model = Rim.Mallows.to_rim mal in
  let sub = Prefs.Ranking.of_list [ m - 1; 0 ] in (* 7 tied greedy modals *)
  let exact = Hardq.Po_solver.prob_subranking model sub in
  List.iter
    (fun cap ->
      let rng = Util.Rng.make (500 + cap) in
      let est = Hardq.Mis_amp.estimate ~modal_cap:cap ~n_per:2000 mal sub rng in
      Printf.printf "    cap=%-3d proposals=%-3d rel err %.4g\n" cap
        est.Hardq.Estimate.n_proposals
        (Exp_util.rel_err ~exact est.Hardq.Estimate.value))
    [ 1; 2; 4; 16; 64 ]

(* Engine scaling: one Boolean query over 1k polls sessions, evaluated on
   1/2/4/8 domains with the result cache off so every point does the same
   solver work. Deterministic answers let us assert that scaling does not
   change the result; one JSON line per point for plotting. *)
let engine_scaling () =
  (* Smoke mode still emits every row — CI's schema test reads them —
     just over a smaller dataset and width sweep. *)
  let smoke = Sys.getenv_opt "HARDQ_BENCH_SMOKE" <> None in
  let n_voters = if smoke then 120 else 1000 in
  let widths = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  Printf.printf "  engine scaling (Boolean, polls, %d sessions, cache off):\n"
    n_voters;
  let db = Datasets.Polls.generate ~n_candidates:16 ~n_voters ~seed:77 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  let eval_with jobs =
    Engine.with_engine Engine.Config.(default |> with_jobs jobs |> with_cache false) (fun engine ->
        let req = Engine.Request.make ~seed:77 db q in
        let t0 = Util.Timer.wall () in
        let resp = Engine.eval engine req in
        let wall = Util.Timer.wall () -. t0 in
        (Engine.Response.answer_float resp, resp.Engine.Response.stats, wall))
  in
  let _, _, _ = eval_with 1 in
  (* warm-up: page in the dataset *)
  let base_prob, _, base_wall = eval_with 1 in
  List.iter
    (fun jobs ->
      let prob, stats, wall = eval_with jobs in
      assert (prob = base_prob);
      Exp_util.json_line
        [
          ("bench", `Str "engine-scaling");
          ("mode", `Str "inter");
          ("domains", `Int jobs);
          ("sessions", `Int stats.Engine.Response.sessions);
          ("distinct", `Int stats.Engine.Response.distinct);
          ("wall_s", `Float wall);
          ("speedup", `Float (base_wall /. wall));
          ("prob", `Float prob);
        ])
    widths;
  (* One instrumented evaluation, outside the timed runs (which stay
     obs-disabled so the scaling numbers measure the uninstrumented path),
     to attach solver/engine counters to the plot data. *)
  let obs_jobs = List.fold_left max 1 widths in
  Obs.enable ();
  let _, stats, _ = eval_with obs_jobs in
  Obs.disable ();
  Exp_util.json_line
    (("bench", `Str "engine-scaling-metrics")
    :: ("domains", `Int obs_jobs)
    :: Exp_util.obs_fields stats.Engine.Response.metrics)

(* Intra-query scaling: a single z = 4 general union, so inter-session
   fan-out has nothing to distribute — any speedup must come from the
   solver-internal work sharing (inclusion–exclusion terms, DP layers,
   enumeration chunks). The probability is asserted bit-identical at
   every width: the parallel reduction is ordered, so scaling is free to
   change the schedule but never the floats. HARDQ_BENCH_SMOKE shrinks
   the instance and the width sweep so CI finishes in seconds. *)
(* A z = 4 general union at domain width [m]: the shared instance of the
   intra-query-scaling and kernel-layout benches. *)
let general_instance m =
  let r = Util.Rng.make 41 in
  let model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make
         ~center:(Prefs.Ranking.of_array (Util.Rng.permutation r m))
         ~phi:0.7)
  in
  let lab =
    Prefs.Labeling.make
      (Array.init m (fun _ ->
           List.filter (fun _ -> Util.Rng.float r 1. < 0.3) [ 0; 1; 2 ]))
  in
  let gu =
    Prefs.Pattern_union.make
      (List.init 4 (fun _ ->
           let nodes = List.init 3 (fun _ -> [ Util.Rng.int r 3 ]) in
           let edges = ref [] in
           for a = 0 to 1 do
             for b = a + 1 to 2 do
               if Util.Rng.float r 1. < 0.6 then edges := (a, b) :: !edges
             done
           done;
           if !edges = [] then edges := [ (0, 2) ];
           Prefs.Pattern.make ~nodes ~edges:!edges))
  in
  (model, lab, gu)

let intra_scaling () =
  let smoke = Sys.getenv_opt "HARDQ_BENCH_SMOKE" <> None in
  let widths = if smoke then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let instance = general_instance in
  Printf.printf "  intra-query scaling (z=4 general union, 15 IE terms):\n";
  let solve ~instance:(model, lab, gu) ~solver ~jobs =
    let pool = Engine.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Engine.Pool.shutdown pool)
      (fun () ->
        let par = Engine.Pool.sharer pool in
        let t0 = Util.Timer.wall () in
        let p = Hardq.Solver.exact_prob ~par solver model lab gu in
        (p, Util.Timer.wall () -. t0))
  in
  List.iter
    (fun (name, solver, m) ->
      let instance = instance m in
      let base_prob, base_wall = solve ~instance ~solver ~jobs:1 in
      List.iter
        (fun jobs ->
          let prob, wall = solve ~instance ~solver ~jobs in
          assert (prob = base_prob);
          Exp_util.json_line
            [
              ("bench", `Str "engine-scaling");
              ("mode", `Str "intra");
              ("solver", `Str name);
              ("domains", `Int jobs);
              ("m", `Int m);
              ("wall_s", `Float wall);
              ("speedup", `Float (base_wall /. wall));
              ("prob", `Float prob);
            ])
        widths)
    (* the brute row is the clean strong-scaling probe (720 fixed-size
       enumeration chunks); the general row exercises the IE fan-out but
       stays at m = 8, where its signature DP is comfortably bounded *)
    [ ("general", `General, 8); ("brute", `Brute, if smoke then 8 else 10) ]

(* Kernel-layout ablation: each exact DP solved single-threaded under
   the boxed reference kernel and the flat arena kernel on the same
   instance. The answers are asserted byte-identical (the kernels are
   the same computation in two memory layouts — DESIGN.md §13); the
   interesting number is the flat row's [ratio] = boxed median / flat
   median, the single-thread layout speedup that BENCH_kernel.json
   tracks.

   Boxed and flat samples interleave (the order flips every repeat), so
   a slow patch of a shared host hits both kernels alike. A sample
   times enough back-to-back solves to last about 5 ms; rows carry the
   per-solve median over [repeats] samples, the interquartile range and
   the host's CPU count. Besides the sub-millisecond single-instance
   rows, [two_label_polls] is shaped like the cold-exact serving
   workload: the Figure 4 union solved for all 60 Polls sessions at
   m = 10, one sample per pass. Smoke mode still emits every row, with
   3 repeats and smaller instances. *)
let kernel_scaling () =
  let smoke = Sys.getenv_opt "HARDQ_BENCH_SMOKE" <> None in
  Printf.printf "  kernel layouts (flat vs boxed, single thread):\n";
  let repeats = if smoke then 3 else 31 in
  let nproc = Domain.recommended_domain_count () in
  let inst =
    List.hd
      (Datasets.Bench_d.generate
         ~ms:[ (if smoke then 10 else 14) ]
         ~patterns_per_union:[ 2 ] ~items_per_label:[ 3 ]
         ~instances_per_combo:1 ~seed:9 ())
  in
  let model = Datasets.Instance.model inst in
  let lab = inst.Datasets.Instance.labeling in
  let u = inst.Datasets.Instance.union in
  let m_d = Rim.Model.m model in
  let gm = if smoke then 7 else 8 in
  let gmodel, glab, gu = general_instance gm in
  let polls_m = if smoke then 6 else 10 in
  let polls =
    let db =
      Datasets.Polls.generate ~n_candidates:polls_m ~n_voters:60 ~seed:42 ()
    in
    let c =
      Ppd.Compile.compile db (Ppd.Parser.parse Datasets.Polls.query_two_label)
    in
    let plab = Ppd.Database.labeling db in
    List.filter_map
      (fun (r : Ppd.Compile.request) ->
        Option.map
          (fun u -> (Rim.Mallows.to_rim r.session.Ppd.Database.model, plab, u))
          r.union)
      c.requests
  in
  let cases =
    [
      ( "two_label",
        (fun kernel -> Hardq.Two_label.prob ~kernel model lab u),
        m_d );
      ("bipartite", (fun kernel -> Hardq.Bipartite.prob ~kernel model lab u), m_d);
      ( "bipartite_basic",
        (fun kernel -> Hardq.Bipartite.prob_basic ~kernel model lab u),
        m_d );
      ( "general",
        (fun kernel -> Hardq.Solver.exact_prob ~kernel `General gmodel glab gu),
        gm );
      ( "two_label_polls",
        (fun kernel ->
          List.fold_left
            (fun acc (model, lab, u) ->
              acc +. Hardq.Two_label.prob ~kernel model lab u)
            0. polls),
        polls_m );
    ]
  in
  List.iter
    (fun (name, solve, m) ->
      let p_boxed = solve Hardq.Kernel.Boxed in
      let p_flat = solve Hardq.Kernel.Flat in
      assert (p_flat = p_boxed);
      (* Solves per sample: enough for about 5 ms, from one timed solve. *)
      let inner =
        let t0 = Util.Timer.wall () in
        ignore (solve Hardq.Kernel.Flat);
        max 1 (int_of_float (0.005 /. max 1e-9 (Util.Timer.wall () -. t0)))
      in
      let sample kernel =
        let t0 = Util.Timer.wall () in
        for _ = 1 to inner do
          ignore (solve kernel)
        done;
        (Util.Timer.wall () -. t0) /. float_of_int inner
      in
      let boxed = Array.make repeats 0. and flat = Array.make repeats 0. in
      for r = 0 to repeats - 1 do
        if r mod 2 = 0 then begin
          boxed.(r) <- sample Hardq.Kernel.Boxed;
          flat.(r) <- sample Hardq.Kernel.Flat
        end
        else begin
          flat.(r) <- sample Hardq.Kernel.Flat;
          boxed.(r) <- sample Hardq.Kernel.Boxed
        end
      done;
      let med a = Util.Stats.median a in
      let iqr a = Util.Stats.percentile a 75. -. Util.Stats.percentile a 25. in
      let w_boxed = med boxed in
      List.iter
        (fun (kernel, samples) ->
          Exp_util.json_line
            [
              ("bench", `Str "kernel-scaling");
              ("mode", `Str "kernel");
              ("solver", `Str name);
              ("kernel", `Str (Hardq.Kernel.to_string kernel));
              ("m", `Int m);
              ("wall_s", `Float (med samples));
              ("iqr_s", `Float (iqr samples));
              ("repeats", `Int repeats);
              ("solves_per_sample", `Int inner);
              ("nproc", `Int nproc);
              ("ratio", `Float (w_boxed /. med samples));
              ("prob", `Float p_flat);
            ])
        [ (Hardq.Kernel.Boxed, boxed); (Hardq.Kernel.Flat, flat) ])
    cases

(* Planner front-end overhead: what the declarative frontend costs on
   top of evaluation. Each row times lexing+parsing and plan compilation
   (best of N repeats, μs — they run per query, not per session) against
   one engine evaluation of the compiled plan; [frontend_share] is the
   fraction of end-to-end time spent before the engine. The datalog row
   doubles as a correctness probe: its planned answer is asserted
   bit-identical to the direct [Ppd.Parser] + [`Auto] path. *)
let plan_overhead () =
  let smoke = Sys.getenv_opt "HARDQ_BENCH_SMOKE" <> None in
  let n_voters = if smoke then 60 else 300 in
  let repeats = if smoke then 50 else 500 in
  Printf.printf "  planner front-end overhead (polls, %d sessions):\n" n_voters;
  let db = Datasets.Polls.generate ~n_candidates:12 ~n_voters ~seed:77 () in
  let queries =
    [
      ("datalog-two-label", Datasets.Polls.query_two_label);
      ( "disjunctive",
        "count Q() :- prefers(\"cand00\", \"cand01\") or prefers(\"cand02\", \
         \"cand03\")." );
      ("rank", "Q() :- rank(\"cand00\") <= 3.");
      ("top-k", "top(3) Q() :- prefers(\"cand00\", \"cand01\").");
    ]
  in
  let best f =
    let best = ref infinity and out = ref None in
    for _ = 1 to repeats do
      let t0 = Util.Timer.wall () in
      let v = f () in
      best := min !best (Util.Timer.wall () -. t0);
      out := Some v
    done;
    (Option.get !out, !best)
  in
  List.iter
    (fun (name, text) ->
      let ast, parse_s =
        best (fun () ->
            match Lang.Parser.parse text with
            | Ok ast -> ast
            | Error e -> failwith (Lang.Ast.error_to_string e))
      in
      let plan, compile_s = best (fun () -> Plan.compile db ast) in
      Engine.with_engine Engine.Config.(default |> with_cache false)
        (fun engine ->
          let t0 = Util.Timer.wall () in
          let resp = Engine.eval engine (Engine.Request.of_plan ~seed:77 plan) in
          let eval_s = Util.Timer.wall () -. t0 in
          let prob = Engine.Response.answer_float resp in
          (if name = "datalog-two-label" then
             let direct =
               Engine.eval engine
                 (Engine.Request.make ~seed:77 db
                    (Ppd.Parser.parse text))
             in
             assert (Engine.Response.answer_float direct = prob));
          Exp_util.json_line
            [
              ("bench", `Str "plan-overhead");
              ("query", `Str name);
              ("m", `Int (Ppd.Database.m db));
              ("sessions", `Int resp.Engine.Response.stats.Engine.Response.sessions);
              ("parse_us", `Float (parse_s *. 1e6));
              ("compile_us", `Float (compile_s *. 1e6));
              ("eval_s", `Float eval_s);
              ( "frontend_share",
                `Float ((parse_s +. compile_s) /. (parse_s +. compile_s +. eval_s))
              );
              ("verdict", `Str (Plan.verdict_string plan.Plan.verdict));
              ("leaf", `Str (Plan.leaf_name plan.Plan.leaf));
              ("prob", `Float prob);
            ]))
    queries

(* Anytime serving: time-to-target-CI for the resumable sampler on a
   polls Boolean query, one row per CI target plus a deadline row. The
   forced Rejection solver routes the request to the sampling path, so
   the numbers measure rounds/frames of the serve loop, not the exact
   DPs. Same-seed frame sequences are deterministic, so the estimate is
   asserted stable across the two runs each target gets (one warm-up,
   one timed). BENCH_anytime.json tracks the emitted rows. *)
let anytime_serving () =
  let smoke = Sys.getenv_opt "HARDQ_BENCH_SMOKE" <> None in
  let n_voters = if smoke then 60 else 600 in
  Printf.printf "  anytime serving (polls, %d sessions, rejection sampler):\n"
    n_voters;
  let db = Datasets.Polls.generate ~n_candidates:12 ~n_voters ~seed:77 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  let solver = Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 1 }) in
  let serve slo =
    Engine.with_engine Engine.Config.(default |> with_cache false)
      (fun engine ->
        let frames = ref 0 in
        let t0 = Util.Timer.wall () in
        let served =
          Engine.serve engine
            ~on_frame:(fun _ -> incr frames)
            (Engine.Request.make ~solver ~seed:77 ~slo db q)
        in
        let wall = Util.Timer.wall () -. t0 in
        let a = Option.get served.Engine.anytime in
        (Engine.Response.answer_float served.Engine.response, a, !frames, wall))
  in
  let status_str (a : Engine.anytime) =
    match a.Engine.status with
    | `Final -> "final"
    | `Timeout -> "timeout"
    | `Cancelled -> "cancelled"
  in
  let row ~mode ~slo_field slo =
    let p0, _, _, _ = serve slo in
    (* warm-up *)
    let p, a, frames, wall = serve slo in
    assert (p = p0);
    (* same seed, same frames *)
    Exp_util.json_line
      ([ ("bench", `Str "anytime-serving"); ("mode", `Str mode); slo_field ]
      @ [
          ("sessions", `Int n_voters);
          ("status", `Str (status_str a));
          ("rounds", `Int a.Engine.rounds);
          ("draws", `Int a.Engine.draws);
          ("frames", `Int frames);
          ("wall_s", `Float wall);
          ("frames_per_s", `Float (float_of_int frames /. Float.max wall 1e-9));
          ("final_width", `Float (a.Engine.ci_hi -. a.Engine.ci_lo));
          ("estimate", `Float p);
        ])
  in
  List.iter
    (fun target ->
      row ~mode:"target-ci"
        ~slo_field:("target_ci", `Float target)
        (`Ci_width target))
    [ 0.2; 0.1; 0.05 ];
  (* One deadline row: expiry degrades to a typed timeout mid-stream. *)
  let deadline_s = if smoke then 0.002 else 0.05 in
  row ~mode:"deadline"
    ~slo_field:("deadline_ms", `Float (deadline_s *. 1e3))
    (`Deadline deadline_s)

let run_kernel ~full:_ () =
  Exp_util.header "Kernel" "DP kernel layouts (boxed reference vs flat arena)";
  kernel_scaling ()

let run_anytime ~full:_ () =
  Exp_util.header "Anytime" "anytime serving: time-to-target-CI and frames/sec";
  anytime_serving ()

let run_plan ~full:_ () =
  Exp_util.header "Plan" "query-language frontend and planner overhead";
  plan_overhead ()

let run ~full:_ () =
  Exp_util.header "Micro" "Bechamel microbenchmarks (kernels and ablations)";
  run_group "kernels" (kernel_tests ());
  run_group "exact solvers (pruning ablation)" (solver_tests ());
  run_group "MIS weighting ablation" (mis_tests ());
  modal_cap_ablation ();
  engine_scaling ();
  intra_scaling ();
  kernel_scaling ();
  plan_overhead ()

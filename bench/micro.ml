(* Bechamel microbenchmarks of the solver kernels and the ablations that
   DESIGN.md calls out:
   - Kendall-tau distance, RIM sampling, AMP sampling + density;
   - two-label vs bipartite vs basic-bipartite on the same union
     (the edge/pattern-pruning ablation);
   - the flat DP kernels' per-call time, minor words and answer bits;
   - balance-heuristic MIS vs plain per-proposal IS weighting;
   - MIS-AMP accuracy against the greedy-modal branching cap. *)

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

(* The flat DP kernels on fixed inputs: CPU µs per call (best of 5
   passes), minor-heap words per warm call, DP states per call, the mean
   per-call key high-water mark ([dp.flat.arena_words_hwm]) and a digest of the answers' bits, so two builds can be compared for
   identical answers as well as for speed. *)
let flat_kernel_cases () =
  let db = Datasets.Polls.generate ~n_candidates:10 ~n_voters:60 ~seed:42 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  (* Compiling interns the query's labels, so it precedes the labeling. *)
  let requests = (Ppd.Compile.compile db q).Ppd.Compile.requests in
  let lab = Ppd.Database.labeling db in
  let polls =
    List.filter_map
      (fun { Ppd.Compile.session; union } ->
        Option.map
          (fun u -> (Rim.Mallows.to_rim session.Ppd.Database.model, u))
          union)
      requests
  in
  let fig07 m =
    List.map
      (fun inst ->
        (Datasets.Instance.model inst, inst.Datasets.Instance.labeling,
         inst.Datasets.Instance.union))
      (Datasets.Bench_c.generate ~ms:[ m ] ~patterns_per_union:[ 3 ]
         ~labels_per_pattern:[ 3 ] ~items_per_label:[ 3 ]
         ~instances_per_combo:3 ~seed:77 ())
  in
  (* σ = identity at m = 16; the chain asks for five items in an order
     the center mostly reverses. *)
  let m = 16 in
  let chain_model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.7)
  in
  let chain = Prefs.Partial_order.of_chain [ 12; 3; 9; 1; 14 ] in
  (* A three-node chain of labels (its middle node is both a source and a
     target) over m = 12, each label on two items. *)
  let m = 12 in
  let sig_model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.6)
  in
  let sig_lab =
    Prefs.Labeling.make
      (Array.init m (fun i ->
           match i with 1 | 8 -> [ 2 ] | 3 | 10 -> [ 1 ] | 5 | 11 -> [ 0 ] | _ -> []))
  in
  let sig_pattern = Prefs.Pattern.chain [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  [
    ( Printf.sprintf "Two_label.prob, %d Polls unions (m=10)" (List.length polls),
      List.map (fun (model, u) () -> Hardq.Two_label.prob model lab u) polls );
    ( "Upper_bound k=1, same unions",
      List.map
        (fun (model, u) () -> Hardq.Upper_bound.upper_bound ~k:1 model lab u)
        polls );
    ( "Bipartite.prob, 3 fig07 (m=14 q=3 z=3)",
      List.map
        (fun (model, lab, u) () -> Hardq.Bipartite.prob model lab u)
        (fig07 14) );
    (* The basic DP passes its state cap on these at m = 14. *)
    ( "Bipartite.prob_basic, 3 fig07 (m=10 q=3 z=3)",
      List.map
        (fun (model, lab, u) () -> Hardq.Bipartite.prob_basic model lab u)
        (fig07 10) );
    ( "Po_solver.prob, 5-item chain (m=16)",
      [ (fun () -> Hardq.Po_solver.prob chain_model chain) ] );
    ( "Pattern_solver.prob_general, 3-node chain (m=12)",
      [ (fun () -> Hardq.Pattern_solver.prob_general sig_model sig_lab sig_pattern) ] );
  ]

let flat_kernels () =
  Printf.printf
    "  flat DP kernels (per call: CPU us best of 5, minor words, states, key \
     words hwm, answer digest):\n";
  List.iter
    (fun (name, calls) ->
      let n = List.length calls in
      let pass () = List.map (fun f -> f ()) calls in
      let answers = pass () in
      let before = Obs.snapshot () in
      let w0 = Gc.minor_words () in
      ignore (pass ());
      let words = (Gc.minor_words () -. w0) /. float_of_int n in
      let d = Obs.diff before (Obs.snapshot ()) in
      let states = Obs.count d "dp.flat.states" in
      let hwm =
        match Obs.find d "dp.flat.arena_words_hwm" with
        | Some (Obs.Hist { count; sum; _ }) when count > 0 ->
            float_of_int sum /. float_of_int count
        | _ -> 0.
      in
      (* Enough repetitions for a pass to take about 0.2 s. *)
      let t0 = Sys.time () in
      ignore (pass ());
      let reps = max 1 (int_of_float (0.2 /. max 1e-6 (Sys.time () -. t0))) in
      let best = ref infinity in
      for _ = 1 to 5 do
        let t0 = Sys.time () in
        for _ = 1 to reps do
          ignore (pass ())
        done;
        best := min !best ((Sys.time () -. t0) /. float_of_int (reps * n))
      done;
      let digest =
        Digest.to_hex
          (Digest.string
             (String.concat ";" (List.map (Printf.sprintf "%h") answers)))
      in
      Printf.printf
        "    %-48s %9.2f us %8.0f words %7d states %8.1f hwm %s\n%!" name
        (!best *. 1e6) words (states / n) hwm
        (String.sub digest 0 12))
    (flat_kernel_cases ())

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

let run ~full:_ () =
  Exp_util.header "Micro" "Bechamel microbenchmarks (kernels and ablations)";
  run_group "kernels" (kernel_tests ());
  flat_kernels ();
  run_group "exact solvers (pruning ablation)" (solver_tests ());
  run_group "MIS weighting ablation" (mis_tests ());
  modal_cap_ablation ()

(* Bechamel microbenchmarks of the solver kernels and the ablations that
   DESIGN.md calls out:
   - Kendall-tau distance, RIM sampling, AMP sampling + density;
   - two-label vs bipartite vs basic-bipartite on the same union
     (the edge/pattern-pruning ablation);
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
  run_group "exact solvers (pruning ablation)" (solver_tests ());
  run_group "MIS weighting ablation" (mis_tests ());
  modal_cap_ablation ()

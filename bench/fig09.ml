(* Figure 9: rejection sampling vs MIS-AMP-lite for the rare event
   sigma_m > sigma_1 under MAL(sigma, 0.1), m = 5..10.

   Paper shape: RS needs exponentially many samples (time grows
   exponentially in m, since Pr ~ phi^(m-1)); MIS-AMP-lite is flat. *)

let run ~full () =
  Exp_util.header "Figure 9" "rejection sampling vs MIS-AMP-lite on a rare event";
  Exp_util.note
    "paper: RS time grows exponentially with m; MIS-AMP-lite stays flat";
  let repeats = if full then 10 else 3 in
  let max_samples = if full then 50_000_000 else 5_000_000 in
  List.iter
    (fun m ->
      let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.1 in
      let model = Rim.Mallows.to_rim mal in
      (* labels: 0 = last item of sigma, 1 = first item *)
      let lab =
        Prefs.Labeling.make
          (Array.init m (fun i ->
               if i = m - 1 then [ 0 ] else if i = 0 then [ 1 ] else []))
      in
      let gu =
        Prefs.Pattern_union.singleton (Prefs.Pattern.two_label ~left:[ 0 ] ~right:[ 1 ])
      in
      let exact = Hardq.Two_label.prob model lab gu in
      (* RS until 1% relative error (optimistic stopping, as in the paper). *)
      let rs_times = ref [] and rs_exhausted = ref 0 in
      for rep = 1 to repeats do
        let rng = Util.Rng.make (900 + (m * 17) + rep) in
        let (), dt =
          Util.Timer.time (fun () ->
              match
                Hardq.Rejection.samples_until ~exact ~rel_tol:0.01 ~max_samples
                  model lab gu rng
              with
              | `Converged _ -> ()
              | `Exhausted -> incr rs_exhausted)
        in
        rs_times := dt :: !rs_times
      done;
      (* MIS-AMP-lite with one proposal distribution. *)
      let sub = Prefs.Ranking.of_list [ m - 1; 0 ] in
      let lite_times = ref [] and lite_errs = ref [] in
      for rep = 1 to repeats do
        let rng = Util.Rng.make (1900 + (m * 31) + rep) in
        let plan = Hardq.Mis_amp_lite.plan_of_subrankings mal [ sub ] in
        (* A single sub-ranking means nothing is pruned: compensation would
           only multiply an unbiased IS estimate by the modal-mass ratio, so
           it is off here (the paper reports only runtime for this figure). *)
        let est, dt =
          Util.Timer.time (fun () ->
              Hardq.Mis_amp_lite.estimate_with_plan ~compensate:false plan ~d:1
                ~n_per:20_000 rng)
        in
        lite_times := dt :: !lite_times;
        lite_errs := Exp_util.rel_err ~exact est.Hardq.Estimate.value :: !lite_errs
      done;
      Exp_util.row
        "m=%-3d exact=%.3e | RS median %8.3fs%s | MIS-AMP-lite median %6.3fs \
         (rel err %s)"
        m exact
        (Exp_util.median_of !rs_times)
        (if !rs_exhausted > 0 then
           Printf.sprintf " (%d/%d hit the %d-sample cap)" !rs_exhausted repeats
             max_samples
         else "")
        (Exp_util.median_of !lite_times)
        (Exp_util.err_summary !lite_errs))
    (if full then [ 5; 6; 7; 8; 9; 10 ] else [ 5; 6; 7; 8 ])

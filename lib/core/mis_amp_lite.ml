type sub_entry = {
  psi : Prefs.Ranking.t;
  est_dist : int;
  mutable modals : (Prefs.Ranking.t * int) list option;
}

type plan = {
  mal : Rim.Mallows.t;
  subs : sub_entry array; (* ascending est_dist *)
  mutable expanded : int;
  mutable overhead : float;
}

(* Modal branching per sub-ranking. *)
let modal_cap = 16

let plan_of_subrankings mal subs =
  let t0 = Util.Timer.now () in
  let center = Rim.Mallows.center mal in
  let entries =
    List.map
      (fun psi ->
        { psi; est_dist = Modals.approximate_distance ~sub:psi ~center; modals = None })
      subs
  in
  let arr = Array.of_list entries in
  Array.sort (fun a b -> compare a.est_dist b.est_dist) arr;
  { mal; subs = arr; expanded = 0; overhead = Util.Timer.now () -. t0 }

let prepare ?subrank_cap mal lab gu =
  let t0 = Util.Timer.now () in
  let subs = Prefs.Decompose.subrankings ?cap:subrank_cap lab gu in
  let plan = plan_of_subrankings mal subs in
  plan.overhead <- Util.Timer.now () -. t0;
  plan

let plan_width plan = Array.length plan.subs
let plan_overhead plan = plan.overhead
let unsatisfiable plan = Array.length plan.subs = 0

let expand_sub plan k =
  let e = plan.subs.(k) in
  match e.modals with
  | Some _ -> ()
  | None ->
      e.modals <-
        Some
          (Modals.greedy_modals ~cap:modal_cap ~sub:e.psi
             ~center:(Rim.Mallows.center plan.mal) ())

let pool_size plan =
  let total = ref 0 in
  for k = 0 to plan.expanded - 1 do
    match plan.subs.(k).modals with
    | Some ms -> total := !total + List.length ms
    | None -> ()
  done;
  !total

(* log Σ_i φ^d_i, treating φ = 0 as "count the d_i = 0 terms". *)
let log_mass phi dists =
  if dists = [] then Util.Logspace.neg_inf
  else if phi = 0. then begin
    let zeros = List.length (List.filter (fun d -> d = 0) dists) in
    if zeros = 0 then Util.Logspace.neg_inf else log (float_of_int zeros)
  end
  else if phi = 1. then log (float_of_int (List.length dists))
  else
    Util.Logspace.log_sum_exp
      (Array.of_list (List.map (fun d -> float_of_int d *. log phi) dists))

let ratio_of_masses phi ~all ~selected =
  let la = log_mass phi all and ls = log_mass phi selected in
  if ls = Util.Logspace.neg_inf then 1. else exp (la -. ls)

let estimate_with_plan ?(compensate = true) plan ~d ~n_per rng =
  if d <= 0 then invalid_arg "Mis_amp_lite: d <= 0";
  if unsatisfiable plan then Estimate.exact 0.
  else begin
    let t0 = Util.Timer.now () in
    let w = Array.length plan.subs in
    (* Grow the modal pool until d proposals are available and at least
       min(w, d) sub-rankings were considered. *)
    while
      plan.expanded < w && (pool_size plan < d || plan.expanded < min w d)
    do
      expand_sub plan plan.expanded;
      plan.expanded <- plan.expanded + 1
    done;
    let pool =
      List.concat
        (List.init plan.expanded (fun k ->
             match plan.subs.(k).modals with
             | Some ms -> List.map (fun (modal, dist) -> (k, modal, dist)) ms
             | None -> []))
    in
    (* Select the d modals closest to the center from the pooled modals of
       the selected sub-rankings (§5.5). *)
    let selected =
      List.filteri
        (fun i _ -> i < d)
        (List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) pool)
    in
    let overhead = Util.Timer.now () -. t0 in
    plan.overhead <- plan.overhead +. overhead;
    match selected with
    | [] -> Estimate.exact 0.
    | _ ->
        let t1 = Util.Timer.now () in
        let proposals =
          Array.of_list
            (List.map
               (fun (k, modal, _) ->
                 Rim.Amp.of_subranking
                   (Rim.Mallows.recenter plan.mal modal)
                   plan.subs.(k).psi)
               selected)
        in
        let p, n_samples =
          Mis.balance_estimate ~target:plan.mal ~proposals ~n_per rng
        in
        let phi = Rim.Mallows.phi plan.mal in
        (* Estimates are probabilities: clip to [0, 1]. Compensation assumes
           near-disjoint sub-rankings and can overshoot badly on heavily
           overlapping unions; the clip bounds that failure mode (and is how
           the paper's Figure 12 errors stay within [0, 1]). *)
        let value =
          if not compensate then p
          else begin
            let sel_subs =
              List.sort_uniq compare (List.map (fun (k, _, _) -> k) selected)
            in
            let c_psi =
              ratio_of_masses phi
                ~all:(Array.to_list (Array.map (fun e -> e.est_dist) plan.subs))
                ~selected:(List.map (fun k -> plan.subs.(k).est_dist) sel_subs)
            in
            let c_r =
              ratio_of_masses phi
                ~all:(List.map (fun (_, _, dist) -> dist) pool)
                ~selected:(List.map (fun (_, _, dist) -> dist) selected)
            in
            p *. c_psi *. c_r
          end
        in
        {
          Estimate.value = min 1. (max 0. value);
          n_samples;
          n_proposals = List.length selected;
          overhead_time = overhead;
          sampling_time = Util.Timer.now () -. t1;
        }
  end

let estimate ?compensate ~d ~n_per mal lab gu rng =
  let plan = prepare mal lab gu in
  let e = estimate_with_plan ?compensate plan ~d ~n_per rng in
  { e with Estimate.overhead_time = plan.overhead }

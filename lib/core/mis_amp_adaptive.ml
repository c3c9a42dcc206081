type result = { estimate : Estimate.t; rounds : (int * float) list }

(* The first round's proposal count. *)
let d0 = 1

let estimate_with_plan ?(delta_d = 5) ?(d_max = 50) ?(n_per = 1000)
    ?(tol = 0.05) plan rng =
  if Mis_amp_lite.unsatisfiable plan then
    { estimate = Estimate.exact 0.; rounds = [] }
  else begin
    let rounds = ref [] in
    let totals = ref (Estimate.exact 0.) in
    let add (e : Estimate.t) =
      totals :=
        {
          e with
          Estimate.n_samples = !totals.Estimate.n_samples + e.Estimate.n_samples;
          overhead_time = !totals.Estimate.overhead_time +. e.Estimate.overhead_time;
          sampling_time = !totals.Estimate.sampling_time +. e.Estimate.sampling_time;
        }
    in
    let converged prev v =
      match prev with
      | None -> false
      | Some pv ->
          let scale = max (abs_float pv) (abs_float v) in
          scale = 0. || abs_float (v -. pv) <= tol *. scale
    in
    let rec go d prev last_d =
      let e = Mis_amp_lite.estimate_with_plan plan ~d ~n_per rng in
      add e;
      rounds := (d, e.Estimate.value) :: !rounds;
      let v = e.Estimate.value in
      (* Stop when stable, when d is capped, or when no new proposals
         appeared in this round (pool exhausted). *)
      if
        converged prev v || d >= d_max
        || e.Estimate.n_proposals <= last_d && d > d0
      then ()
      else go (d + delta_d) (Some v) e.Estimate.n_proposals
    in
    go d0 None 0;
    { estimate = !totals; rounds = List.rev !rounds }
  end

let estimate ?delta_d ?d_max ?n_per ?tol ?subrank_cap mal lab gu rng =
  let plan = Mis_amp_lite.prepare ?subrank_cap mal lab gu in
  let r = estimate_with_plan ?delta_d ?d_max ?n_per ?tol plan rng in
  (* Include full plan construction in the reported overhead. *)
  {
    r with
    estimate =
      { r.estimate with Estimate.overhead_time = Mis_amp_lite.plan_overhead plan };
  }

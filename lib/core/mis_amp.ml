let estimate ?(modal_cap = 64) ~n_per mal psi rng =
  let t0 = Util.Timer.now () in
  let modals =
    Modals.greedy_modals ~cap:modal_cap ~sub:psi ~center:(Rim.Mallows.center mal) ()
  in
  let proposals =
    Array.of_list
      (List.map (fun (modal, _) -> Rim.Amp.of_subranking (Rim.Mallows.recenter mal modal) psi) modals)
  in
  let t1 = Util.Timer.now () in
  let value, n_samples = Mis.balance_estimate ~target:mal ~proposals ~n_per rng in
  {
    Estimate.value = min 1. value;
    n_samples;
    n_proposals = Array.length proposals;
    overhead_time = t1 -. t0;
    sampling_time = Util.Timer.now () -. t1;
  }

(* [estimate_union]'s modal branching per sub-ranking and its total
   proposal count. *)
let union_modal_cap = 16
let proposal_cap = 256

let estimate_union ~n_per mal lab gu rng =
  let t0 = Util.Timer.now () in
  let center = Rim.Mallows.center mal in
  let subs = Prefs.Decompose.subrankings lab gu in
  if subs = [] then Estimate.exact 0.
  else begin
    let per_sub =
      List.map
        (fun psi ->
          ( psi,
            Modals.greedy_modals ~cap:union_modal_cap ~sub:psi ~center () ))
        subs
    in
    (* Keep the best modal of every sub-ranking so the proposal mixture
       covers the whole event (unbiasedness), then fill up to the cap with
       the globally closest remaining modals. *)
    let heads, tails =
      List.fold_left
        (fun (hs, ts) (psi, modals) ->
          match modals with
          | [] -> (hs, ts)
          | (modal, dist) :: rest ->
              ( (psi, modal, dist) :: hs,
                List.map (fun (m, d) -> (psi, m, d)) rest @ ts ))
        ([], []) per_sub
    in
    let extra =
      List.filteri
        (fun i _ -> i < proposal_cap - List.length heads)
        (List.stable_sort (fun (_, _, a) (_, _, b) -> compare a b) tails)
    in
    let chosen = List.rev heads @ extra in
    let proposals =
      Array.of_list
        (List.map
           (fun (psi, modal, _) -> Rim.Amp.of_subranking (Rim.Mallows.recenter mal modal) psi)
           chosen)
    in
    let t1 = Util.Timer.now () in
    let value, n_samples = Mis.balance_estimate ~target:mal ~proposals ~n_per rng in
    {
      Estimate.value = min 1. value;
      n_samples;
      n_proposals = Array.length proposals;
      overhead_time = t1 -. t0;
      sampling_time = Util.Timer.now () -. t1;
    }
  end

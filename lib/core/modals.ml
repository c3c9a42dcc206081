let insertion_costs ~sub ~center x =
  let k = Prefs.Ranking.length sub in
  let cpos y = Prefs.Ranking.position_of center y in
  let cx = cpos x in
  let costs = Array.make (k + 1) 0 in
  (* cost(0): every sub item that the center ranks before x is discordant. *)
  let c0 = ref 0 in
  for p = 0 to k - 1 do
    if cpos (Prefs.Ranking.item_at sub p) < cx then incr c0
  done;
  costs.(0) <- !c0;
  for j = 0 to k - 1 do
    let y = Prefs.Ranking.item_at sub j in
    costs.(j + 1) <- (costs.(j) + if cx < cpos y then 1 else -1)
  done;
  costs

let argmins costs =
  let best = Array.fold_left min costs.(0) costs in
  let out = ref [] in
  Array.iteri (fun j c -> if c = best then out := j :: !out) costs;
  (best, List.rev !out)

let greedy_modals ?(cap = 64) ~sub ~center () =
  let m = Prefs.Ranking.length center in
  let d0 = Prefs.Ranking.discordant_with_reference ~reference:center sub in
  let frontier = ref [ (sub, d0) ] in
  for i = 0 to m - 1 do
    let x = Prefs.Ranking.item_at center i in
    if not (Prefs.Ranking.mem sub x) then begin
      let expanded =
        List.concat_map
          (fun (s, d) ->
            let best, js = argmins (insertion_costs ~sub:s ~center x) in
            List.map (fun j -> (Prefs.Ranking.insert s j x, d + best)) js)
          !frontier
      in
      (* Dedup, keep the [cap] closest. *)
      let seen = Hashtbl.create 32 in
      let dedup =
        List.filter
          (fun (s, _) ->
            let key = Prefs.Ranking.to_array s in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          expanded
      in
      let sorted = List.stable_sort (fun (_, a) (_, b) -> compare a b) dedup in
      frontier := List.filteri (fun i _ -> i < cap) sorted
    end
  done;
  List.stable_sort (fun (_, a) (_, b) -> compare a b) !frontier

let approximate_completion ~sub ~center =
  let m = Prefs.Ranking.length center in
  let d = ref (Prefs.Ranking.discordant_with_reference ~reference:center sub) in
  let s = ref sub in
  for i = 0 to m - 1 do
    let x = Prefs.Ranking.item_at center i in
    if not (Prefs.Ranking.mem !s x) then begin
      let best, js = argmins (insertion_costs ~sub:!s ~center x) in
      s := Prefs.Ranking.insert !s (List.hd js) x;
      d := !d + best
    end
  done;
  (!s, !d)

let approximate_distance ~sub ~center = snd (approximate_completion ~sub ~center)

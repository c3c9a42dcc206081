let min_position lab sigma node =
  let items = Prefs.Labeling.items_with_all lab node in
  List.fold_left
    (fun acc item ->
      match Prefs.Ranking.position_of sigma item with
      | p -> ( match acc with None -> Some p | Some q -> Some (min p q))
      | exception Not_found -> acc)
    None items

let max_position lab sigma node =
  let items = Prefs.Labeling.items_with_all lab node in
  List.fold_left
    (fun acc item ->
      match Prefs.Ranking.position_of sigma item with
      | p -> ( match acc with None -> Some p | Some q -> Some (max p q))
      | exception Not_found -> acc)
    None items

let ease lab sigma l r =
  match (min_position lab sigma l, max_position lab sigma r) with
  | Some a, Some b -> Some (b - a)
  | _ -> None

let select_edges ~k lab sigma g =
  if k < 1 then invalid_arg "Upper_bound.select_edges: k < 1";
  let witnessable v = Prefs.Labeling.items_with_all lab (Prefs.Pattern.node g v) <> [] in
  let all_nodes = List.init (Prefs.Pattern.n_nodes g) (fun v -> v) in
  if not (List.for_all witnessable all_nodes) then None
  else begin
    let tc = Prefs.Pattern.transitive_closure g in
    let scored =
      List.filter_map
        (fun (a, b) ->
          let l = Prefs.Pattern.node tc a and r = Prefs.Pattern.node tc b in
          Option.map (fun e -> (e, (l, r))) (ease lab sigma l r))
        (Prefs.Pattern.edges tc)
    in
    let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) scored in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    Some (List.map snd (take k sorted))
  end

(* Observability: every bound evaluation and the relaxation's size. The
   underlying two-label/bipartite DP work shows up in those solvers' own
   counters. *)
let c_calls = Obs.counter "solver.upper_bound.calls"
let c_edges = Obs.counter "solver.upper_bound.edges_selected"

let prune_slack = 1e-9

let upper_bound ?budget ~k model lab gu =
  let sigma = Rim.Model.sigma model in
  let sets =
    List.filter_map (select_edges ~k lab sigma) (Prefs.Pattern_union.patterns gu)
  in
  if Obs.enabled () then begin
    Obs.Counter.incr c_calls;
    Obs.Counter.add c_edges (List.fold_left (fun acc s -> acc + List.length s) 0 sets)
  end;
  if sets = [] then 0.
  else if List.exists (fun s -> s = []) sets then 1.
  else if k = 1 then
    Two_label.prob_edges ?budget model lab (List.map List.hd sets)
  else Bipartite.prob_constraint_sets ?budget model lab sets

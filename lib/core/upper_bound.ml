(* Widen [lo.(v)]/[hi.(v)] to the positions in σ (through its inverse
   [pos]) of [items]; items σ lacks are skipped. *)
let rec extend pos lo hi v = function
  | [] -> ()
  | item :: items ->
      (if item < Array.length pos then
         let p = pos.(item) in
         if p >= 0 then begin
           if p < lo.(v) then lo.(v) <- p;
           if p > hi.(v) then hi.(v) <- p
         end);
      extend pos lo hi v items

(* One pass per node over the items carrying it: whether it has a
   witness at all, and its first and last position in σ. *)
let select_edges ~k lab model g =
  if k < 1 then invalid_arg "Upper_bound.select_edges: k < 1";
  let pos = Rim.Model.positions model in
  let n = Prefs.Pattern.n_nodes g in
  let lo = Array.make n max_int and hi = Array.make n (-1) in
  let witnessed = ref true in
  for v = 0 to n - 1 do
    match Prefs.Labeling.items_with_all lab (Prefs.Pattern.node g v) with
    | [] -> witnessed := false
    | items -> extend pos lo hi v items
  done;
  if not !witnessed then None
  else begin
    let scored =
      List.filter_map
        (fun (a, b) ->
          if lo.(a) = max_int || hi.(b) < 0 then None
          else Some (hi.(b) - lo.(a), (Prefs.Pattern.node g a, Prefs.Pattern.node g b)))
        (Prefs.Pattern.closure_edges g)
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
  let sets =
    List.filter_map (select_edges ~k lab model) (Prefs.Pattern_union.patterns gu)
  in
  Obs.Counter.incr c_calls;
  Obs.Counter.add c_edges (List.fold_left (fun acc s -> acc + List.length s) 0 sets);
  if sets = [] then 0.
  else if List.exists (fun s -> s = []) sets then 1.
  else if k = 1 then
    Two_label.prob_edges ?budget model lab (List.map List.hd sets)
  else Bipartite.prob_constraint_sets ?budget model lab sets

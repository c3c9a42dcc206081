exception Too_many of string

let default_cap = 1_000_000

let embeddings ?(cap = default_cap) lab g =
  let q = Pattern.n_nodes g in
  let candidates = Array.init q (fun v -> Labeling.items_with_all lab (Pattern.node g v)) in
  let count =
    Array.fold_left
      (fun acc c ->
        let n = List.length c in
        if acc > cap then acc else acc * max n 1)
      1 candidates
  in
  if count > cap then
    raise (Too_many (Printf.sprintf "Decompose.embeddings: > %d choices" cap));
  let out = ref [] in
  let choice = Array.make q 0 in
  let edge_ok () =
    List.for_all (fun (a, b) -> choice.(a) <> choice.(b)) (Pattern.edges g)
  in
  let acyclic () =
    let edges = List.map (fun (a, b) -> (choice.(a), choice.(b))) (Pattern.edges g) in
    match Partial_order.make ~edges with
    | _ -> true
    | exception Invalid_argument _ -> false
  in
  let rec go v =
    if v = q then begin
      if edge_ok () && acyclic () then out := Array.copy choice :: !out
    end
    else
      List.iter
        (fun item ->
          choice.(v) <- item;
          go (v + 1))
        candidates.(v)
  in
  go 0;
  List.rev !out

let partial_order_of_choice g choice =
  let edges = List.map (fun (a, b) -> (choice.(a), choice.(b))) (Pattern.edges g) in
  let items = Array.to_list choice in
  Partial_order.make_with_items ~items ~edges

let partial_orders ?cap lab g =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun choice ->
      let po = partial_order_of_choice g choice in
      let key = (Partial_order.items po, Partial_order.edges po) in
      if Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        Some po
      end)
    (embeddings ?cap lab g)

let subrankings_into ?(cap = default_cap) ~seen ~out lab g =
  List.iter
    (fun po ->
      List.iter
        (fun r ->
          let key = Ranking.to_array r in
          if not (Hashtbl.mem seen key) then begin
            if Hashtbl.length seen >= cap then
              raise
                (Too_many
                   (Printf.sprintf "Decompose.subrankings: > %d sub-rankings" cap));
            Hashtbl.add seen key ();
            out := r :: !out
          end)
        (Partial_order.linear_extensions po))
    (partial_orders ~cap lab g)

let subrankings ?cap lab gu =
  let seen = Hashtbl.create 64 and out = ref [] in
  List.iter (fun g -> subrankings_into ?cap ~seen ~out lab g) (Pattern_union.patterns gu);
  List.rev !out

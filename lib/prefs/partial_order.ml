type item = int

type t = {
  items : item list; (* sorted, distinct *)
  edges : (item * item) list; (* sorted, distinct *)
}

let sort_uniq_items = List.sort_uniq Stdlib.compare
let sort_uniq_edges = List.sort_uniq Stdlib.compare

let succs t x = List.filter_map (fun (a, b) -> if a = x then Some b else None) t.edges
let preds t x = List.filter_map (fun (a, b) -> if b = x then Some a else None) t.edges

(* Kahn's algorithm; returns None when a cycle exists. *)
let topological_order t =
  let indeg = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace indeg x 0) t.items;
  List.iter (fun (_, b) -> Hashtbl.replace indeg b (Hashtbl.find indeg b + 1)) t.edges;
  let ready = List.filter (fun x -> Hashtbl.find indeg x = 0) t.items in
  let rec go acc ready =
    match ready with
    | [] -> if List.length acc = List.length t.items then Some (List.rev acc) else None
    | x :: rest ->
        let rest =
          List.fold_left
            (fun rest y ->
              let d = Hashtbl.find indeg y - 1 in
              Hashtbl.replace indeg y d;
              if d = 0 then y :: rest else rest)
            rest (succs t x)
        in
        go (x :: acc) rest
  in
  go [] ready

let build items edges =
  let t = { items = sort_uniq_items items; edges = sort_uniq_edges edges } in
  List.iter
    (fun (a, b) -> if a = b then invalid_arg "Partial_order: self-loop")
    t.edges;
  match topological_order t with
  | None -> invalid_arg "Partial_order: cyclic edge set"
  | Some _ -> t

let make ~edges =
  let items = List.concat_map (fun (a, b) -> [ a; b ]) edges in
  build items edges

let make_with_items ~items ~edges =
  let more = List.concat_map (fun (a, b) -> [ a; b ]) edges in
  build (items @ more) edges

let make_opt ~items ~edges =
  let more = List.concat_map (fun (a, b) -> [ a; b ]) edges in
  match build (items @ more) edges with
  | t -> Some t
  | exception Invalid_argument _ -> None

let empty = { items = []; edges = [] }
let items t = t.items
let edges t = t.edges
let size t = List.length t.items
let is_empty t = t.items = []

let transitive_closure t =
  (* BFS from each item over the successor relation. *)
  let closure_edges =
    List.concat_map
      (fun src ->
        let visited = Hashtbl.create 8 in
        let rec go frontier acc =
          match frontier with
          | [] -> acc
          | x :: rest ->
              let nexts =
                List.filter (fun y -> not (Hashtbl.mem visited y)) (succs t x)
              in
              List.iter (fun y -> Hashtbl.replace visited y ()) nexts;
              go (nexts @ rest) (List.map (fun y -> (src, y)) nexts @ acc)
        in
        go [ src ] [])
      t.items
  in
  { items = t.items; edges = sort_uniq_edges closure_edges }

let union t1 t2 = make_opt ~items:(t1.items @ t2.items) ~edges:(t1.edges @ t2.edges)

let of_chain l =
  let rec chain_edges = function
    | a :: (b :: _ as rest) -> (a, b) :: chain_edges rest
    | [ _ ] | [] -> []
  in
  build l (chain_edges l)

let consistent t r =
  List.for_all (fun (a, b) -> Ranking.position_of r a < Ranking.position_of r b) t.edges

let fold_linear_extensions t f init =
  let n = List.length t.items in
  let indeg = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace indeg x 0) t.items;
  List.iter (fun (_, b) -> Hashtbl.replace indeg b (Hashtbl.find indeg b + 1)) t.edges;
  let acc = ref init in
  let chosen = Array.make n 0 in
  let rec go depth =
    if depth = n then acc := f !acc (Ranking.of_array (Array.sub chosen 0 n))
    else
      List.iter
        (fun x ->
          if Hashtbl.find indeg x = 0 then begin
            Hashtbl.replace indeg x (-1); (* mark used *)
            List.iter (fun y -> Hashtbl.replace indeg y (Hashtbl.find indeg y - 1)) (succs t x);
            chosen.(depth) <- x;
            go (depth + 1);
            List.iter (fun y -> Hashtbl.replace indeg y (Hashtbl.find indeg y + 1)) (succs t x);
            Hashtbl.replace indeg x 0
          end)
        t.items
  in
  go 0;
  !acc

let linear_extensions t = List.rev (fold_linear_extensions t (fun acc r -> r :: acc) [])

let count_linear_extensions t = fold_linear_extensions t (fun n _ -> n + 1) 0
let equal t1 t2 = t1 = t2
let compare = Stdlib.compare

let pp ppf t =
  Format.fprintf ppf "@[<h>{items=%a; %a}@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    t.items
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (a, b) -> Format.fprintf ppf "%d\u{227B}%d" a b))
    t.edges

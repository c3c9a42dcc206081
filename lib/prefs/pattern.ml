type label = int
type node = label list

type t = {
  nodes : node array;
  edges : (int * int) list; (* sorted, distinct *)
  topo : int list; (* cached topological order of node indices *)
}

let node_graph_topo ~n ~edges =
  let indeg = Array.make n 0 in
  List.iter (fun (_, b) -> indeg.(b) <- indeg.(b) + 1) edges;
  let succs = Array.make n [] in
  List.iter (fun (a, b) -> succs.(a) <- b :: succs.(a)) edges;
  let ready = ref [] in
  for i = n - 1 downto 0 do
    if indeg.(i) = 0 then ready := i :: !ready
  done;
  let rec go acc = function
    | [] -> if List.length acc = n then Some (List.rev acc) else None
    | x :: rest ->
        let rest =
          List.fold_left
            (fun rest y ->
              indeg.(y) <- indeg.(y) - 1;
              if indeg.(y) = 0 then y :: rest else rest)
            rest succs.(x)
        in
        go (x :: acc) rest
  in
  go [] !ready

let make ~nodes ~edges =
  let nodes =
    Array.of_list
      (List.map
         (fun n ->
           match List.sort_uniq Stdlib.compare n with
           | [] -> invalid_arg "Pattern.make: empty node conjunction"
           | n -> n)
         nodes)
  in
  let n = Array.length nodes in
  let edges = List.sort_uniq Stdlib.compare edges in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg "Pattern.make: edge endpoint out of range";
      if a = b then invalid_arg "Pattern.make: self-loop")
    edges;
  match node_graph_topo ~n ~edges with
  | None -> invalid_arg "Pattern.make: cyclic edges"
  | Some topo -> { nodes; edges; topo }

let two_label ~left ~right = make ~nodes:[ left; right ] ~edges:[ (0, 1) ]

let chain ns =
  let n = List.length ns in
  make ~nodes:ns ~edges:(List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let n_nodes t = Array.length t.nodes
let node t i = t.nodes.(i)
let nodes t = Array.copy t.nodes
let edges t = t.edges

let labels t =
  List.sort_uniq Stdlib.compare (List.concat (Array.to_list t.nodes))

let succs t i = List.filter_map (fun (a, b) -> if a = i then Some b else None) t.edges
let preds t i = List.filter_map (fun (a, b) -> if b = i then Some a else None) t.edges
let topological_order t = t.topo

let is_two_label t =
  Array.length t.nodes = 2 && t.edges = [ (0, 1) ]

let bipartite_roles t =
  let n = Array.length t.nodes in
  let src = Array.make n false and dst = Array.make n false in
  List.iter
    (fun (a, b) ->
      src.(a) <- true;
      dst.(b) <- true)
    t.edges;
  let ok = ref true in
  let roles =
    Array.init n (fun i ->
        match (src.(i), dst.(i)) with
        | true, true ->
            ok := false;
            `Iso
        | true, false -> `L
        | false, true -> `R
        | false, false -> `Iso)
  in
  if !ok then Some roles else None

let is_bipartite t = Option.is_some (bipartite_roles t)

(* Two nodes have no path of length two: their edges are closed already
   (the case of every two-label pattern, on each 1-edge bound). *)
let closure_edges t =
  let n = Array.length t.nodes in
  if n <= 2 then t.edges
  else begin
    let reach = Array.make_matrix n n false in
    List.iter (fun (a, b) -> reach.(a).(b) <- true) t.edges;
    for k = 0 to n - 1 do
      for i = 0 to n - 1 do
        if reach.(i).(k) then
          for j = 0 to n - 1 do
            if reach.(k).(j) then reach.(i).(j) <- true
          done
      done
    done;
    let edges = ref [] in
    for i = n - 1 downto 0 do
      for j = n - 1 downto 0 do
        if reach.(i).(j) then edges := (i, j) :: !edges
      done
    done;
    !edges
  end

let conjunction ts =
  let nodes = List.concat_map (fun t -> Array.to_list t.nodes) ts in
  let _, edges =
    List.fold_left
      (fun (off, acc) t ->
        let shifted = List.map (fun (a, b) -> (a + off, b + off)) t.edges in
        (off + Array.length t.nodes, shifted @ acc))
      (0, []) ts
  in
  make ~nodes ~edges

let equal t1 t2 = t1.nodes = t2.nodes && t1.edges = t2.edges
let compare t1 t2 = Stdlib.compare (t1.nodes, t1.edges) (t2.nodes, t2.edges)

(* Canonical node order: a pure index permutation (edges are remapped),
   so the pattern's semantics — and hence any probability computed from
   it — is exactly preserved. Nodes sort by (depth, conjunction,
   successor conjunctions, predecessor conjunctions), ties broken by the
   original index. Sorting on depth first keeps every edge source ahead
   of its targets, so [is_two_label] and [bipartite_roles] classify the
   canonical form exactly as they classify the original. Two patterns
   that differ only by conjunct order in the source query map to the
   same canonical form (automorphic ties may keep rare equal pairs
   apart — that costs a cache miss, never a wrong merge). *)
let canonical t =
  let n = Array.length t.nodes in
  let depth = Array.make n 0 in
  List.iter
    (fun i ->
      List.iter
        (fun (a, b) -> if a = i && depth.(b) < depth.(i) + 1 then depth.(b) <- depth.(i) + 1)
        t.edges)
    t.topo;
  let key i =
    let nbr sel = List.sort Stdlib.compare (List.filter_map sel t.edges) in
    ( depth.(i),
      t.nodes.(i),
      nbr (fun (a, b) -> if a = i then Some t.nodes.(b) else None),
      nbr (fun (a, b) -> if b = i then Some t.nodes.(a) else None) )
  in
  let keys = Array.init n key in
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i j ->
      match Stdlib.compare keys.(i) keys.(j) with 0 -> Stdlib.compare i j | c -> c)
    order;
  let pos = Array.make n 0 in
  Array.iteri (fun newi oldi -> pos.(oldi) <- newi) order;
  make
    ~nodes:(List.map (fun oldi -> t.nodes.(oldi)) (Array.to_list order))
    ~edges:(List.map (fun (a, b) -> (pos.(a), pos.(b))) t.edges)

let pp_node name ppf n =
  match n with
  | [ l ] -> Format.pp_print_string ppf (name l)
  | ls ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf l -> Format.pp_print_string ppf (name l)))
        ls

let pp_named name ppf t =
  if t.edges = [] then
    Format.fprintf ppf "@[<h>nodes[%a]@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (pp_node name))
      (Array.to_list t.nodes)
  else
    Format.fprintf ppf "@[<h>%a@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (a, b) ->
           Format.fprintf ppf "%a\u{227B}%a" (pp_node name) t.nodes.(a)
             (pp_node name) t.nodes.(b)))
      t.edges

let pp ppf t = pp_named string_of_int ppf t

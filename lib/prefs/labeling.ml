type item = int
type label = int

type t = {
  labels : label list array; (* per item, sorted distinct *)
  index : (label, item list) Hashtbl.t; (* label -> items ascending *)
}

let build_index labels =
  let index = Hashtbl.create 64 in
  Array.iteri
    (fun i ls ->
      List.iter
        (fun l ->
          let cur = Option.value ~default:[] (Hashtbl.find_opt index l) in
          Hashtbl.replace index l (i :: cur))
        ls)
    labels;
  Hashtbl.iter (fun l items -> Hashtbl.replace index l (List.rev items)) index;
  index

let make a =
  let labels = Array.map (List.sort_uniq Stdlib.compare) a in
  { labels; index = build_index labels }

let of_pairs ~n_items pairs =
  let a = Array.make n_items [] in
  List.iter
    (fun (i, l) ->
      if i < 0 || i >= n_items then invalid_arg "Labeling.of_pairs: item out of range";
      a.(i) <- l :: a.(i))
    pairs;
  make a

let n_items t = Array.length t.labels
let has t i l = List.mem l t.labels.(i)
(* Direct recursion, no closure: the solvers call these once per
   pattern node per solve. *)
let rec mem_all ls labels =
  match ls with [] -> true | l :: rest -> List.mem l labels && mem_all rest labels

let has_all t i ls = mem_all ls t.labels.(i)
let items_with t l = Option.value ~default:[] (Hashtbl.find_opt t.index l)

let rec filter_all t rest = function
  | [] -> []
  | i :: items ->
      if mem_all rest t.labels.(i) then i :: filter_all t rest items
      else filter_all t rest items

let items_with_all t = function
  | [] -> List.init (n_items t) (fun i -> i)
  | [ l ] -> items_with t l
  | l :: rest -> filter_all t rest (items_with t l)

let all_labels t =
  List.sort_uniq Stdlib.compare
    (Hashtbl.fold (fun l _ acc -> l :: acc) t.index [])

let restrict_items t m =
  if m > n_items t then invalid_arg "Labeling.restrict_items";
  make (Array.sub t.labels 0 m)

let pp ppf t =
  Array.iteri
    (fun i ls ->
      Format.fprintf ppf "%d:{%a}@ " i
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        ls)
    t.labels

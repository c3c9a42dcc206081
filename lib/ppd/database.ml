type session = { key : Value.t array; model : Rim.Mallows.t }

type p_relation = {
  pname : string;
  key_attrs : string array;
  psessions : session array;
}

let p_relation ~name ~key_attrs sessions =
  {
    pname = name;
    key_attrs = Array.of_list key_attrs;
    psessions = Array.of_list sessions;
  }

let p_name p = p.pname
let p_key_attrs p = Array.copy p.key_attrs
let sessions p = p.psessions

type label_key =
  | Attr_eq of string * Value.t
  | Attr_cmp of string * Value.op * Value.t
  | Universal

type t = {
  item_rel : Relation.t;
  item_tuples : Value.t array array; (* indexed by item *)
  item_index : (Value.t, int) Hashtbl.t;
  o_rels : Relation.t list;
  p_rels : p_relation list;
  label_m : Mutex.t;
      (* serializes the label registry below: requests compile, and so
         intern, on several threads against one resident database *)
  label_ids : (label_key, int) Hashtbl.t;
  mutable label_names : string list; (* reversed *)
  mutable item_labels : int list array; (* per item, reversed order *)
  mutable labeling_cache : Prefs.Labeling.t option;
}

let make ~items ?(relations = []) ?(preferences = []) () =
  let item_tuples = Array.of_list (Relation.tuples items) in
  let m = Array.length item_tuples in
  let item_index = Hashtbl.create m in
  Array.iteri
    (fun i tup ->
      if Hashtbl.mem item_index tup.(0) then
        invalid_arg "Database.make: duplicate item id";
      Hashtbl.add item_index tup.(0) i)
    item_tuples;
  List.iter
    (fun p ->
      Array.iter
        (fun s ->
          if Rim.Mallows.m s.model <> m then
            invalid_arg
              (Printf.sprintf
                 "Database.make: session model of %s has %d items, database has %d"
                 p.pname (Rim.Mallows.m s.model) m))
        p.psessions)
    preferences;
  {
    item_rel = items;
    item_tuples;
    item_index;
    o_rels = relations;
    p_rels = preferences;
    label_m = Mutex.create ();
    label_ids = Hashtbl.create 64;
    label_names = [];
    item_labels = Array.make m [];
    labeling_cache = None;
  }

let m t = Array.length t.item_tuples
let items t = t.item_rel
let item_of_id t v = Hashtbl.find t.item_index v
let id_of_item t i = t.item_tuples.(i).(0)

let find_relation t name =
  if Relation.name t.item_rel = name then t.item_rel
  else List.find (fun r -> Relation.name r = name) t.o_rels

let find_p_relation t name = List.find (fun p -> p.pname = name) t.p_rels
let p_relations t = t.p_rels
let o_relations t = t.o_rels

let label_key_name = function
  | Attr_eq (a, v) -> Printf.sprintf "%s=%s" a (Value.to_string v)
  | Attr_cmp (a, op, v) ->
      Printf.sprintf "%s%s%s" a (Value.op_to_string op) (Value.to_string v)
  | Universal -> "*"

let intern_label t key =
  Mutex.protect t.label_m @@ fun () ->
  match Hashtbl.find_opt t.label_ids key with
  | Some id -> id
  | None ->
      let test =
        match key with
        | Attr_eq (a, v) ->
            let col = Relation.attr_index t.item_rel a in
            fun tup -> Value.equal tup.(col) v
        | Attr_cmp (a, op, v) ->
            let col = Relation.attr_index t.item_rel a in
            fun tup -> Value.apply_op op tup.(col) v
        | Universal -> fun _ -> true
      in
      let id = Hashtbl.length t.label_ids in
      Hashtbl.add t.label_ids key id;
      t.label_names <- label_key_name key :: t.label_names;
      Array.iteri
        (fun i tup -> if test tup then t.item_labels.(i) <- id :: t.item_labels.(i))
        t.item_tuples;
      t.labeling_cache <- None;
      id

let label_name t id =
  Mutex.protect t.label_m @@ fun () ->
  let n = List.length t.label_names in
  if id < 0 || id >= n then invalid_arg "Database.label_name";
  List.nth t.label_names (n - 1 - id)

let labeling t =
  Mutex.protect t.label_m @@ fun () ->
  match t.labeling_cache with
  | Some l -> l
  | None ->
      let l = Prefs.Labeling.make (Array.map (fun ls -> ls) t.item_labels) in
      t.labeling_cache <- Some l;
      l

let item_attr t i attr =
  t.item_tuples.(i).(Relation.attr_index t.item_rel attr)

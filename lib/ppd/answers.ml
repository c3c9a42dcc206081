type answer = { values : Value.t list; confidence : float }

let unsupported fmt = Printf.ksprintf (fun s -> raise (Compile.Unsupported s)) fmt

(* Comparison constraints of one variable. *)
let cmps_of q v =
  List.filter_map
    (fun (lhs, op, rhs) ->
      match (lhs, rhs) with
      | Query.Var v', Query.Const c when v' = v -> Some (op, c)
      | Query.Const c, Query.Var v' when v' = v -> Some (Value.flip_op op, c)
      | _ -> None)
    (Query.cmp_atoms q)

let domain_of_var db q v =
  let item_rel = Database.items db in
  let item_rel_name = Relation.name item_rel in
  (* Item variable? *)
  let is_item_var =
    List.exists (fun t -> t = Query.Var v) (Query.item_terms q)
  in
  let columns =
    if is_item_var then [ Relation.column item_rel 0 ]
    else
      List.concat_map
        (fun (rel_name, terms) ->
          if rel_name <> item_rel_name then []
          else
            List.concat
              (List.mapi
                 (fun pos term ->
                   if pos > 0 && term = Query.Var v then
                     [ Relation.column item_rel pos ]
                   else [])
                 terms))
        (Query.rel_atoms q)
  in
  match columns with
  | [] ->
      unsupported
        "head variable %s must occur as an item variable or an item-relation \
         attribute"
        v
  | first :: rest ->
      let inter =
        List.filter
          (fun x -> List.for_all (List.exists (Value.equal x)) rest)
          first
      in
      let cs = cmps_of q v in
      List.filter
        (fun x -> List.for_all (fun (op, c) -> Value.apply_op op x c) cs)
        inter

let domains db q = List.map (fun v -> (v, domain_of_var db q v)) q.Query.head

let groundings db q =
  let doms = domains db q in
  List.map
    (fun combo -> (combo, Query.substitute q (List.combine q.Query.head combo)))
    (Util.Combinat.cartesian_product (List.map snd doms))

let evaluate prob db q =
  let gs = groundings db q in
  let answers =
    List.filter_map
      (fun ((values, _), confidence) ->
        if confidence > 0. then Some { values; confidence } else None)
      (List.combine gs (prob (List.map snd gs)))
  in
  List.stable_sort (fun a b -> compare b.confidence a.confidence) answers

let top ~k prob db q = List.filteri (fun i _ -> i < k) (evaluate prob db q)

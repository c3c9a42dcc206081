exception Unsupported of string
exception Grounding_too_large of string

type request = {
  session : Database.session;
  union : Prefs.Pattern_union.t option;
}

type t = { p_rel : Database.p_relation; requests : request list }

let unsupported fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* ------------------------------------------------------------------ *)
(* Static analysis                                                     *)
(* ------------------------------------------------------------------ *)

type analysis = {
  prel : Database.p_relation;
  session_terms : Query.term list;
  session_vars : string list;
  item_terms : Query.term array; (* node index -> endpoint term *)
  edges : (int * int) list;
  (* node index -> (attr name, term) constraints from item-relation atoms *)
  node_constraints : (string * Query.term) list array;
  (* o-relation joins on a session variable: (relation, session var, terms) *)
  session_atoms : (Relation.t * string * Query.term list) list;
  (* per-variable comparison constraints *)
  cmps : (string, (Value.op * Value.t) list) Hashtbl.t;
  (* variables to ground (V+), with their (attr occurrences) *)
  grounded : (string * string list) list; (* var, attrs it occurs under *)
}

let analyze db q =
  if q.Query.head <> [] then
    unsupported
      "query has head variables; evaluate it with hardq answers (Boolean \
       evaluation needs an empty head)";
  let item_rel = Database.items db in
  let item_rel_name = Relation.name item_rel in
  (* Preference atoms: one p-relation, identical session terms. *)
  let prefs = Query.pref_atoms q in
  let prel_name, session_terms =
    match prefs with
    | (rel, session, _, _) :: rest ->
        List.iter
          (fun (rel', session', _, _) ->
            if rel' <> rel then
              unsupported "preference atoms over different p-relations (%s, %s)" rel
                rel';
            if session' <> session then
              unsupported
                "preference atoms with different session terms: the query is not \
                 sessionwise")
          rest;
        (rel, session)
    | [] -> unsupported "no preference atom"
  in
  let prel =
    try Database.find_p_relation db prel_name
    with Not_found -> unsupported "unknown p-relation %s" prel_name
  in
  if List.length session_terms <> Array.length (Database.p_key_attrs prel) then
    unsupported "p-relation %s expects %d session terms" prel_name
      (Array.length (Database.p_key_attrs prel));
  let session_vars =
    List.filter_map
      (function Query.Var v -> Some v | Query.Const _ | Query.Wildcard -> None)
      session_terms
  in
  (* Item endpoints become pattern nodes. *)
  let item_terms = Array.of_list (Query.item_terms q) in
  let node_of_term term =
    let rec go i =
      if i = Array.length item_terms then raise Not_found
      else if item_terms.(i) = term then i
      else go (i + 1)
    in
    go 0
  in
  let edges =
    List.sort_uniq compare
      (List.map (fun (_, _, l, r) -> (node_of_term l, node_of_term r)) prefs)
  in
  (* Relational atoms. *)
  let node_constraints = Array.make (Array.length item_terms) [] in
  let session_atoms = ref [] in
  List.iter
    (fun (rel_name, terms) ->
      let rel =
        try Database.find_relation db rel_name
        with Not_found -> unsupported "unknown relation %s" rel_name
      in
      if List.length terms <> Relation.arity rel then
        unsupported "atom %s has arity %d, expected %d" rel_name (List.length terms)
          (Relation.arity rel);
      let first = List.hd terms in
      if rel_name = item_rel_name then begin
        let node =
          try node_of_term first
          with Not_found ->
            unsupported
              "item-relation atom %s(...) must be anchored on a preference-atom \
               endpoint"
              rel_name
        in
        let attrs = Relation.attrs rel in
        List.iteri
          (fun pos term ->
            if pos > 0 then
              node_constraints.(node) <- (attrs.(pos), term) :: node_constraints.(node))
          terms
      end
      else
        match first with
        | Query.Var s when List.mem s session_vars ->
            session_atoms := (rel, s, terms) :: !session_atoms
        | _ ->
            unsupported
              "o-relation atom %s(...) must be anchored on a session variable"
              rel_name)
    (Query.rel_atoms q);
  (* Comparisons: variable vs constant. *)
  let cmps = Hashtbl.create 8 in
  let add_cmp v op c =
    Hashtbl.replace cmps v ((op, c) :: Option.value ~default:[] (Hashtbl.find_opt cmps v))
  in
  List.iter
    (fun (lhs, op, rhs) ->
      match (lhs, rhs) with
      | Query.Var v, Query.Const c -> add_cmp v op c
      | Query.Const c, Query.Var v -> add_cmp v (Value.flip_op op) c
      | _ -> unsupported "comparisons must relate a variable and a constant")
    (Query.cmp_atoms q);
  (* Bound variables: session vars and variables bound by session atoms. *)
  let bound = Hashtbl.create 8 in
  List.iter (fun v -> Hashtbl.replace bound v ()) session_vars;
  List.iter
    (fun (_, _, terms) ->
      List.iter
        (function Query.Var v -> Hashtbl.replace bound v () | _ -> ())
        terms)
    !session_atoms;
  (* Occurrences of attribute variables under item atoms. *)
  let occurrences = Hashtbl.create 8 in
  Array.iteri
    (fun node cs ->
      List.iter
        (fun (attr, term) ->
          match term with
          | Query.Var v when not (Hashtbl.mem bound v) ->
              let cur = Option.value ~default:[] (Hashtbl.find_opt occurrences v) in
              if not (List.mem (node, attr) cur) then
                Hashtbl.replace occurrences v ((node, attr) :: cur)
          | _ -> ())
        cs)
    node_constraints;
  (* Item variables must not double as attribute variables. *)
  Array.iter
    (function
      | Query.Var v when Hashtbl.mem occurrences v ->
          unsupported "variable %s is used both as an item and as an attribute" v
      | _ -> ())
    item_terms;
  (* Safety: every compared variable occurs somewhere. *)
  Hashtbl.iter
    (fun v _ ->
      if
        (not (Hashtbl.mem bound v))
        && (not (Hashtbl.mem occurrences v))
        && not (Array.exists (fun t -> t = Query.Var v) item_terms)
      then unsupported "comparison on unbound variable %s" v)
    cmps;
  let grounded =
    Hashtbl.fold
      (fun v occs acc ->
        if List.length occs >= 2 then
          (v, List.sort_uniq compare (List.map snd occs)) :: acc
        else acc)
      occurrences []
  in
  {
    prel;
    session_terms;
    session_vars;
    item_terms;
    edges;
    node_constraints;
    session_atoms = List.rev !session_atoms;
    cmps;
    grounded = List.sort compare grounded;
  }

let v_plus db q = List.map fst (analyze db q).grounded
let is_itemwise db q = (analyze db q).grounded = []

(* ------------------------------------------------------------------ *)
(* Pattern construction                                                *)
(* ------------------------------------------------------------------ *)

let cmp_ok cmps v value =
  match Hashtbl.find_opt cmps v with
  | None -> true
  | Some cs -> List.for_all (fun (op, c) -> Value.apply_op op value c) cs

(* Labels of one node under an environment. *)
let node_labels db a env node =
  let item_rel = Database.items db in
  let id_attr = (Relation.attrs item_rel).(0) in
  let base =
    match a.item_terms.(node) with
    | Query.Const c -> [ Database.Attr_eq (id_attr, c) ]
    | Query.Var _ -> []
    | Query.Wildcard -> []
  in
  let of_constraint (attr, term) =
    match term with
    | Query.Wildcard -> []
    | Query.Const c -> [ Database.Attr_eq (attr, c) ]
    | Query.Var v -> (
        match Hashtbl.find_opt env v with
        | Some value -> [ Database.Attr_eq (attr, value) ]
        | None -> (
            (* Free single-occurrence variable: its comparisons become
               derived predicate labels. *)
            match Hashtbl.find_opt a.cmps v with
            | None -> []
            | Some cs ->
                List.map
                  (fun (op, c) ->
                    match op with
                    | Value.Eq -> Database.Attr_eq (attr, c)
                    | op -> Database.Attr_cmp (attr, op, c))
                  cs))
  in
  let keys = base @ List.concat_map of_constraint a.node_constraints.(node) in
  let keys = if keys = [] then [ Database.Universal ] else keys in
  List.map (Database.intern_label db) keys

let build_pattern db a env =
  let nodes =
    List.init (Array.length a.item_terms) (fun node -> node_labels db a env node)
  in
  match Prefs.Pattern.make ~nodes ~edges:a.edges with
  | g -> Some g
  | exception Invalid_argument _ -> None (* x > x or cyclic preferences *)

(* ------------------------------------------------------------------ *)
(* Grounding (Algorithm 2)                                             *)
(* ------------------------------------------------------------------ *)

let grounding_domains db a =
  let item_rel = Database.items db in
  List.map
    (fun (v, attrs) ->
      let domains =
        List.map (fun attr -> Relation.column item_rel (Relation.attr_index item_rel attr)) attrs
      in
      let inter =
        match domains with
        | [] -> []
        | d :: rest ->
            List.filter (fun x -> List.for_all (List.exists (Value.equal x)) rest) d
      in
      (v, List.filter (cmp_ok a.cmps v) inter))
    a.grounded

(* The union of patterns for a fixed base environment, iterating the
   Cartesian product of the V+ domains. *)
let union_for_env ?(grounding_cap = 100_000) db a domains env0 =
  let size =
    List.fold_left (fun acc (_, d) -> acc * max 1 (List.length d)) 1 domains
  in
  if size > grounding_cap then
    raise
      (Grounding_too_large
         (Printf.sprintf "grounding would enumerate %d assignments (cap %d)" size
            grounding_cap));
  let patterns = ref [] in
  let env = Hashtbl.copy env0 in
  let rec go = function
    | [] -> (
        match build_pattern db a env with
        | Some g -> patterns := g :: !patterns
        | None -> ())
    | (v, dom) :: rest ->
        List.iter
          (fun value ->
            Hashtbl.replace env v value;
            go rest)
          dom;
        Hashtbl.remove env v
  in
  go domains;
  match List.rev !patterns with
  | [] -> None
  | ps -> Some (Prefs.Pattern_union.canonical (Prefs.Pattern_union.make ps))

(* ------------------------------------------------------------------ *)
(* Session filtering and joins                                         *)
(* ------------------------------------------------------------------ *)

(* Base environments for one session: session-variable bindings extended by
   every way of joining the session atoms. Returns [] when some join is
   empty (the query cannot hold in this session). *)
let session_envs a indexes (s : Database.session) =
  (* Session-term constraints. *)
  let env = Hashtbl.create 8 in
  let ok = ref true in
  List.iteri
    (fun k term ->
      match term with
      | Query.Const c -> if not (Value.equal s.Database.key.(k) c) then ok := false
      | Query.Var v -> (
          match Hashtbl.find_opt env v with
          | Some old -> if not (Value.equal old s.Database.key.(k)) then ok := false
          | None ->
              if cmp_ok a.cmps v s.Database.key.(k) then
                Hashtbl.replace env v s.Database.key.(k)
              else ok := false)
      | Query.Wildcard -> ())
    a.session_terms;
  if not !ok then []
  else
    (* Fold session atoms, branching on matching tuples. *)
    let extend env (rel, svar, terms, index) =
      let key = Hashtbl.find env svar in
      let matching = Option.value ~default:[] (Hashtbl.find_opt index key) in
      ignore rel;
      List.filter_map
        (fun tup ->
          let env' = Hashtbl.copy env in
          let ok = ref true in
          List.iteri
            (fun pos term ->
              if pos > 0 then
                match term with
                | Query.Wildcard -> ()
                | Query.Const c ->
                    if not (Value.equal tup.(pos) c) then ok := false
                | Query.Var v -> (
                    match Hashtbl.find_opt env' v with
                    | Some old -> if not (Value.equal old tup.(pos)) then ok := false
                    | None ->
                        if cmp_ok a.cmps v tup.(pos) then
                          Hashtbl.replace env' v tup.(pos)
                        else ok := false))
            terms;
          if !ok then Some env' else None)
        matching
    in
    List.fold_left
      (fun envs atom -> List.concat_map (fun env -> extend env atom) envs)
      [ env ] indexes

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let compile ?grounding_cap db q =
  let a = analyze db q in
  let domains = grounding_domains db a in
  (* Index each session-atom relation by its first column. *)
  let indexes =
    List.map
      (fun (rel, svar, terms) ->
        let index = Hashtbl.create 64 in
        List.iter
          (fun tup ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt index tup.(0)) in
            Hashtbl.replace index tup.(0) (tup :: cur))
          (Relation.tuples rel);
        (rel, svar, terms, index))
      a.session_atoms
  in
  (* Memoize pattern unions by the canonical form of the base environment
     restricted to the variables the grounding reads (those under item
     atoms): sessions whose bindings agree there share the (potentially
     expensive) grounding, even when their session variables differ. *)
  let read_vars = Hashtbl.create 8 in
  Array.iter
    (List.iter (function
      | _, Query.Var v -> Hashtbl.replace read_vars v ()
      | _, (Query.Const _ | Query.Wildcard) -> ()))
    a.node_constraints;
  let memo = Hashtbl.create 64 in
  let env_key env0 =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc -> if Hashtbl.mem read_vars k then (k, v) :: acc else acc)
         env0 [])
  in
  let union_for (key, env0) =
    match Hashtbl.find_opt memo key with
    | Some u -> u
    | None ->
        let u = union_for_env ?grounding_cap db a domains env0 in
        Hashtbl.add memo key u;
        u
  in
  (* Memoize each session's canonical union by its sorted environment
     keys: sessions whose environments agree on the read variables (every
     session, when the query has no session atom) share one value instead
     of rebuilding it.
     The union depends only on the set of environments, so the shared
     value is the one each session would have built. *)
  let session_memo = Hashtbl.create 64 in
  let session_union envs =
    let keyed =
      List.sort_uniq
        (fun (k1, _) (k2, _) -> compare k1 k2)
        (List.map (fun env -> (env_key env, env)) envs)
    in
    let key = List.map fst keyed in
    match Hashtbl.find_opt session_memo key with
    | Some u -> u
    | None ->
        let u =
          (* Canonical per-session form: grounding/environment order is
             commutative, so permuted-but-equal queries compile to the
             same union — and hence the same content-addressed
             sub-answer cache key in the engine. *)
          match
            List.concat_map Prefs.Pattern_union.patterns
              (List.filter_map union_for keyed)
          with
          | [] -> None
          | ps -> Some (Prefs.Pattern_union.canonical (Prefs.Pattern_union.make ps))
        in
        Hashtbl.add session_memo key u;
        u
  in
  let requests =
    List.filter_map
      (fun session ->
        match session_envs a indexes session with
        | [] -> (
            (* Either filtered out by session-term constraints or the join
               failed. Filtered-out sessions are excluded; failed joins make
               the query false in this session. *)
            match
              List.length a.session_atoms > 0
              && session_envs { a with session_atoms = [] } [] session <> []
            with
            | true -> Some { session; union = None }
            | false -> None)
        | envs -> Some { session; union = session_union envs })
      (Array.to_list (Database.sessions a.prel))
  in
  { p_rel = a.prel; requests }

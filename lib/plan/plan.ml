type leaf =
  | Exact of Hardq.Solver.exact
  | Union_ie
  | Rank_poly
  | Enumerate
  | Sample of Hardq.Solver.approx

type verdict = Tractable of string | Hard of string | Estimated of string

type cost = {
  sessions : int;
  disjuncts : int;
  union_patterns : int;
  union_nodes : int;
  ie_terms : float;
}

type pred_part = Always | Never | Union of Prefs.Pattern_union.t

type pred_session = {
  session : Ppd.Database.session;
  parts : (pred_part * Prefs.Rank_pred.t list) list;
}

type lowered =
  | Patterns of Ppd.Compile.request list
  | Predicates of pred_session list

type t = {
  ast : Lang.Ast.t;
  db : Ppd.Database.t;
  task : Lang.Ast.task;
  modal : Lang.Ast.modal option;
  leaf : leaf;
  verdict : verdict;
  cost : cost;
  shapes : string list;
  p_rel : string;
  lowered : lowered;
}

let unsupported fmt =
  Printf.ksprintf (fun msg -> raise (Ppd.Compile.Unsupported msg)) fmt

(* ---------------------------------------------------------------- *)
(* Desugaring                                                        *)
(* ---------------------------------------------------------------- *)

(* The unique p-relation, required by [prefers(a, b)] (which names no
   relation) and by rank-only queries (whose sessions it defines). *)
let sole_p_relation db what =
  match Ppd.Database.p_relations db with
  | [ p ] -> p
  | ps ->
      unsupported "%s needs a unique preference relation (database has %d)"
        what (List.length ps)

let rank_pred db ~item ~op ~k =
  match item with
  | Ppd.Query.Const v -> (
      match Ppd.Database.item_of_id db v with
      | item -> { Prefs.Rank_pred.item; op; k }
      | exception Not_found ->
          unsupported "rank(%s): unknown item" (Ppd.Value.to_string v))
  | Ppd.Query.Var v -> unsupported "rank(%s): item must be a constant" v
  | Ppd.Query.Wildcard -> unsupported "rank(_): item must be a constant"

(* One disjunct: the CQ part ([None] when rank-only) plus its rank
   predicates, in atom order. *)
type disjunct = { cq : Ppd.Query.t option; ranks : Prefs.Rank_pred.t list }

let desugar_disjunct db (ast : Lang.Ast.t) conj =
  let atoms = ref [] and ranks = ref [] in
  List.iter
    (fun atom ->
      match atom with
      | Lang.Ast.Prefers { left; right } ->
          let p = sole_p_relation db "prefers(...)" in
          let session =
            Array.to_list
              (Array.map (fun _ -> Ppd.Query.Wildcard) (Ppd.Database.p_key_attrs p))
          in
          atoms :=
            Ppd.Query.Pref { rel = Ppd.Database.p_name p; session; left; right }
            :: !atoms
      | Lang.Ast.Datalog a -> atoms := a :: !atoms
      | Lang.Ast.Rank { item; op; k } -> ranks := rank_pred db ~item ~op ~k :: !ranks
      | Lang.Ast.Top { k; item } ->
          ranks := rank_pred db ~item ~op:Prefs.Rank_pred.Le ~k :: !ranks)
    conj;
  let atoms = List.rev !atoms and ranks = List.rev !ranks in
  let cq =
    match atoms with
    | [] ->
        if ranks = [] then unsupported "empty disjunct";
        None
    | atoms ->
        if not (List.exists (function Ppd.Query.Pref _ -> true | _ -> false) atoms)
        then
          unsupported
            "disjunct has relational atoms but no preference or rank atom";
        Some (Ppd.Query.make ~name:ast.Lang.Ast.name atoms)
  in
  { cq; ranks }

(* ---------------------------------------------------------------- *)
(* Compilation + session-table merge                                 *)
(* ---------------------------------------------------------------- *)

(* Per-disjunct, per-session status of the pattern part. *)
type status = Missing | Null | U of Prefs.Pattern_union.t

let compile_disjuncts ?grounding_cap db disjuncts =
  (* Compile every CQ disjunct; they must agree on the p-relation. *)
  let compiled =
    List.map
      (fun d ->
        match d.cq with
        | None -> None
        | Some q -> Some (Ppd.Compile.compile ?grounding_cap db q))
      disjuncts
  in
  let prel =
    match List.filter_map (Option.map (fun c -> c.Ppd.Compile.p_rel)) compiled with
    | [] -> sole_p_relation db "rank(...)"
    | p :: rest ->
        List.iter
          (fun p' ->
            if Ppd.Database.p_name p' <> Ppd.Database.p_name p then
              unsupported "disjuncts range over different preference relations")
          rest;
        p
  in
  (* Per-disjunct session tables, keyed by session key. *)
  let tables =
    List.map
      (Option.map (fun c ->
           let tbl = Hashtbl.create 64 in
           List.iter
             (fun { Ppd.Compile.session; union } ->
               Hashtbl.replace tbl session.Ppd.Database.key
                 (match union with None -> Null | Some u -> U u))
             c.Ppd.Compile.requests;
           tbl))
      compiled
  in
  let status_of tbl (s : Ppd.Database.session) =
    match tbl with
    | None -> `Rank_only
    | Some tbl -> (
        match Hashtbl.find_opt tbl s.Ppd.Database.key with
        | None -> `Status Missing
        | Some st -> `Status st)
  in
  (prel, compiled, tables, status_of)

let compile ?grounding_cap ?hint db (ast : Lang.Ast.t) =
  if ast.Lang.Ast.head <> [] then
    unsupported
      "head variables are not supported by the planner (Boolean tasks only); \
       evaluate the query with hardq answers";
  let disjuncts = List.map (desugar_disjunct db ast) ast.Lang.Ast.body in
  let has_ranks = List.exists (fun d -> d.ranks <> []) disjuncts in
  let prel, compiled, tables, status_of =
    compile_disjuncts ?grounding_cap db disjuncts
  in
  (* Validate the aggregate spec against the session schema. *)
  (match ast.Lang.Ast.task with
  | Lang.Ast.Sum agg | Lang.Ast.Avg agg -> (
      match agg with
      | Lang.Ast.Key_index i ->
          let n = Array.length (Ppd.Database.p_key_attrs prel) in
          if i < 0 || i >= n then
            unsupported "key %d: the session key has %d attributes" i n
      | Lang.Ast.Joined { relation; attr = _ } -> (
          match Ppd.Database.find_relation db relation with
          | _ -> ()
          | exception Not_found -> unsupported "unknown relation %s" relation))
  | _ -> ());
  let sessions = Array.to_list (Ppd.Database.sessions prel) in
  let hint = match ast.Lang.Ast.using with Some _ as u -> u | None -> hint in
  if has_ranks then begin
    (* Ranking-level evaluation: keep the disjuncts separate. *)
    let rows =
      List.filter_map
        (fun s ->
          let parts =
            List.map2
              (fun tbl d ->
                let part =
                  match status_of tbl s with
                  | `Rank_only -> Always
                  | `Status Missing | `Status Null -> Never
                  | `Status (U u) -> Union u
                in
                (part, d.ranks))
              tables disjuncts
          in
          (* a session every disjunct misses did not survive any filter *)
          if
            List.for_all2
              (fun tbl _ -> status_of tbl s = `Status Missing)
              tables disjuncts
          then None
          else Some { session = s; parts })
        sessions
    in
    let m = Ppd.Database.m db in
    let leaf, verdict =
      match hint with
      | Some (Hardq.Solver.Approx (Hardq.Solver.Rejection _ as a)) ->
          ( Sample a,
            Estimated
              (Printf.sprintf "rejection sampling requested via using %s"
                 (Hardq.Solver.approx_name a)) )
      | Some (Hardq.Solver.Approx a) ->
          unsupported "using %s: MIS estimators cannot evaluate rank atoms"
            (Hardq.Solver.approx_name a)
      | Some (Hardq.Solver.Exact `Brute) ->
          ( Enumerate,
            Hard
              (Printf.sprintf
                 "brute-force enumeration over m! = %d! rankings requested via \
                  using brute"
                 m) )
      | Some (Hardq.Solver.Exact e) when e <> `Auto ->
          unsupported "using %s: pattern solvers cannot evaluate rank atoms"
            (Hardq.Solver.exact_name e)
      | _ -> (
          match (disjuncts, rows) with
          | [ { cq = None; ranks = [ _ ] } ], _ ->
              ( Rank_poly,
                Tractable
                  "single rank atom: exact O(m²) insertion DP, no enumeration"
              )
          | _ when m <= 8 ->
              ( Enumerate,
                Hard
                  (Printf.sprintf
                     "rank atoms mixed with patterns force enumeration over m! \
                      = %d! rankings"
                     m) )
          | _ ->
              ( Sample (Hardq.Solver.Rejection { n = 20_000 }),
                Estimated
                  (Printf.sprintf
                     "rank atoms mixed with patterns at m = %d: enumeration is \
                      infeasible, falling back to rejection sampling"
                     m) ))
    in
    let cost =
      {
        sessions = List.length rows;
        disjuncts = List.length disjuncts;
        union_patterns =
          List.fold_left
            (fun acc r ->
              List.fold_left
                (fun acc (p, _) ->
                  match p with
                  | Union u -> max acc (Prefs.Pattern_union.size u)
                  | Always | Never -> acc)
                acc r.parts)
            0 rows;
        union_nodes = 0;
        ie_terms = 0.;
      }
    in
    let shapes =
      (if List.for_all (fun d -> d.cq = None) disjuncts then [ "rank-only" ]
       else [ "rank+pattern" ])
      @ if List.length disjuncts > 1 then [ "disjunctive" ] else []
    in
    {
      ast;
      db;
      task = ast.Lang.Ast.task;
      modal = ast.Lang.Ast.modal;
      leaf;
      verdict;
      cost;
      shapes;
      p_rel = Ppd.Database.p_name prel;
      lowered = Predicates rows;
    }
  end
  else begin
    (* Pattern-only: lower to the same per-session requests the direct
       path evaluates. A single disjunct is passed through untouched
       (bit-identical to [Ppd.Compile.compile]); disjunctions merge the
       per-session unions, since Pr(d₁ ∨ d₂ | s) is the probability of
       the union of their patterns. *)
    let requests =
      match compiled with
      | [ Some c ] -> c.Ppd.Compile.requests
      | _ ->
          List.filter_map
            (fun s ->
              let statuses =
                List.map (fun tbl ->
                    match status_of tbl s with
                    | `Rank_only -> assert false
                    | `Status st -> st)
                  tables
              in
              if List.for_all (fun st -> st = Missing) statuses then None
              else
                let pats =
                  List.concat_map
                    (function
                      | U u -> Prefs.Pattern_union.patterns u
                      | Missing | Null -> [])
                    statuses
                in
                let union =
                  match pats with
                  | [] -> None
                  | pats ->
                      Some
                        (Prefs.Pattern_union.canonical
                           (Prefs.Pattern_union.make pats))
                in
                Some { Ppd.Compile.session = s; union })
            sessions
    in
    let kind =
      List.fold_left
        (fun acc { Ppd.Compile.union; _ } ->
          match union with
          | None -> acc
          | Some u -> (
              match (acc, Prefs.Pattern_union.kind u) with
              | Prefs.Pattern_union.General, _ | _, Prefs.Pattern_union.General
                ->
                  Prefs.Pattern_union.General
              | Prefs.Pattern_union.Bipartite, _
              | _, Prefs.Pattern_union.Bipartite ->
                  Prefs.Pattern_union.Bipartite
              | Prefs.Pattern_union.Two_label, Prefs.Pattern_union.Two_label ->
                  Prefs.Pattern_union.Two_label))
        Prefs.Pattern_union.Two_label requests
    in
    let classified_leaf, verdict =
      match kind with
      | Prefs.Pattern_union.Two_label ->
          ( Exact `Two_label,
            Tractable
              "every per-session pattern union is two-label: O(m^{2z+1}) DP \
               (§4.2)" )
      | Prefs.Pattern_union.Bipartite ->
          ( Exact `Bipartite,
            Tractable
              "every per-session pattern union is bipartite-matchable: \
               polynomial DP over label multisets (§4.3)" )
      | Prefs.Pattern_union.General ->
          ( Union_ie,
            Hard
              "some pattern has an item that is both source and target: \
               inclusion–exclusion over the union, worst-case exponential in \
               its size (§4.1)" )
    in
    let leaf, verdict =
      match hint with
      | None | Some (Hardq.Solver.Exact `Auto) -> (classified_leaf, verdict)
      | Some (Hardq.Solver.Exact e) ->
          ( Exact e,
            (match verdict with
            | Tractable why -> Tractable (why ^ "; solver forced via using")
            | Hard why -> Hard (why ^ "; solver forced via using")
            | Estimated why -> Estimated why) )
      | Some (Hardq.Solver.Approx a) ->
          ( Sample a,
            Estimated
              (Printf.sprintf "sampling estimator requested via using %s"
                 (Hardq.Solver.approx_name a)) )
    in
    let union_patterns, union_nodes, ie_terms =
      List.fold_left
        (fun (zmax, nmax, terms) { Ppd.Compile.union; _ } ->
          match union with
          | None -> (zmax, nmax, terms)
          | Some u ->
              let z = Prefs.Pattern_union.size u in
              ( max zmax z,
                max nmax (Prefs.Pattern_union.total_nodes u),
                terms +. (2. ** float_of_int z) -. 1. ))
        (0, 0, 0.) requests
    in
    let itemwise =
      List.for_all
        (fun d ->
          match d.cq with
          | None -> true
          | Some q -> Ppd.Compile.is_itemwise db q)
        disjuncts
    in
    let shapes =
      (match kind with
      | Prefs.Pattern_union.Two_label -> [ "two-label" ]
      | Prefs.Pattern_union.Bipartite -> [ "bipartite" ]
      | Prefs.Pattern_union.General -> [ "general" ])
      @ (if itemwise then [ "itemwise" ] else [])
      @ (if union_patterns <= 1 then [ "partial-order" ] else [])
      @ if List.length disjuncts > 1 then [ "disjunctive" ] else []
    in
    {
      ast;
      db;
      task = ast.Lang.Ast.task;
      modal = ast.Lang.Ast.modal;
      leaf;
      verdict;
      cost =
        {
          sessions = List.length requests;
          disjuncts = List.length disjuncts;
          union_patterns;
          union_nodes;
          ie_terms;
        };
      shapes;
      p_rel = Ppd.Database.p_name prel;
      lowered = Patterns requests;
    }
  end

(* ---------------------------------------------------------------- *)
(* Accessors                                                         *)
(* ---------------------------------------------------------------- *)

let routed_solver t =
  match t.leaf with
  | Exact e -> Hardq.Solver.Exact e
  | Union_ie -> Hardq.Solver.Exact `General
  | Sample a -> Hardq.Solver.Approx a
  | Rank_poly | Enumerate -> Hardq.Solver.Exact `Brute

let with_leaf t leaf = { t with leaf }

let of_query ~solver db q =
  with_leaf
    (compile ~hint:solver db (Lang.Ast.of_query q))
    (match solver with
    | Hardq.Solver.Exact e -> Exact e
    | Hardq.Solver.Approx a -> Sample a)

let leaf_name = function
  | Exact e -> Printf.sprintf "exact[%s]" (Hardq.Solver.exact_name e)
  | Union_ie -> "union-ie"
  | Rank_poly -> "rank-poly"
  | Enumerate -> "enumerate"
  | Sample a -> Printf.sprintf "sample[%s]" (Hardq.Solver.approx_name a)

let root_name t =
  match t.task with
  | Lang.Ast.Prob -> "boolean"
  | Lang.Ast.Count | Lang.Ast.Sum _ | Lang.Ast.Avg _ -> "aggregate"
  | Lang.Ast.Top_sessions _ -> "top-k"

let node_kinds t =
  let leaf_kind =
    match t.leaf with
    | Exact _ -> "exact"
    | Union_ie -> "union-ie"
    | Rank_poly -> "rank-poly"
    | Enumerate -> "enumerate"
    | Sample _ -> "sample"
  in
  [ root_name t; leaf_kind ]

let verdict_string = function
  | Tractable _ -> "tractable"
  | Hard _ -> "hard"
  | Estimated _ -> "estimated"

let task_tag = function
  | Lang.Ast.Prob -> "prob"
  | Lang.Ast.Count -> "count"
  | Lang.Ast.Sum (Lang.Ast.Key_index i) -> Printf.sprintf "sum(key %d)" i
  | Lang.Ast.Sum (Lang.Ast.Joined { relation; attr }) ->
      Printf.sprintf "sum(%s.%s)" relation attr
  | Lang.Ast.Avg (Lang.Ast.Key_index i) -> Printf.sprintf "avg(key %d)" i
  | Lang.Ast.Avg (Lang.Ast.Joined { relation; attr }) ->
      Printf.sprintf "avg(%s.%s)" relation attr
  | Lang.Ast.Top_sessions k -> Printf.sprintf "top(%d)" k

(* Conjunct order inside a disjunct and disjunct order are both
   normalized away, so semantically equal queries share a digest (and
   hence the RNG streams of sampling leaves). The engine's answer cache
   needs no help from this: its keys are per-session canonical unions,
   already order-independent via [Pattern_union.canonical]. *)
let digest t =
  let module D = Hardq.Digest in
  let h = D.string D.empty "plan-v1" in
  let h = D.string h (task_tag t.task) in
  let h =
    D.string h
      (match t.modal with
      | None -> "-"
      | Some Lang.Ast.Possibly -> "possibly"
      | Some Lang.Ast.Certainly -> "certainly")
  in
  let h =
    match t.leaf with
    | Exact e -> D.solver (D.int h 0) (Hardq.Solver.Exact e)
    | Union_ie -> D.int h 1
    | Rank_poly -> D.int h 2
    | Enumerate -> D.int h 3
    | Sample a -> D.solver (D.int h 4) (Hardq.Solver.Approx a)
  in
  let disjunct_digests =
    List.map
      (fun conj ->
        let atoms = List.sort compare (List.map Lang.Ast.atom_to_string conj) in
        List.fold_left D.string (D.string D.empty "disjunct") atoms)
      t.ast.Lang.Ast.body
  in
  List.fold_left
    (fun h d -> D.int h (D.to_int d))
    h
    (List.sort D.compare disjunct_digests)

let explain t =
  let b = Buffer.create 256 in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pr "query: %s\n" (Lang.Ast.to_string t.ast);
  pr "plan:\n";
  let root =
    match t.task with
    | Lang.Ast.Prob -> (
        match t.modal with
        | None -> "boolean"
        | Some Lang.Ast.Possibly -> "boolean (possibly: Pr > 0)"
        | Some Lang.Ast.Certainly -> "boolean (certainly: Pr = 1)")
    | task -> task_tag task
  in
  pr "  %s[%s]\n"
    (match root_name t with
    | "aggregate" -> "Aggregate"
    | "top-k" -> "Top_k"
    | _ -> "Boolean")
    root;
  pr "    └ %s: %d sessions, %d disjunct%s" (leaf_name t.leaf) t.cost.sessions
    t.cost.disjuncts
    (if t.cost.disjuncts = 1 then "" else "s");
  if t.cost.union_patterns > 0 then
    pr ", unions ≤ %d pattern%s" t.cost.union_patterns
      (if t.cost.union_patterns = 1 then "" else "s");
  if t.cost.union_nodes > 0 then pr " / %d nodes" t.cost.union_nodes;
  if t.cost.ie_terms > 0. then pr ", Σ IE terms = %.0f" t.cost.ie_terms;
  pr "\n";
  (match t.verdict with
  | Tractable why -> pr "verdict: tractable — %s\n" why
  | Hard why -> pr "verdict: hard — %s\n" why
  | Estimated why -> pr "verdict: estimated — %s\n" why);
  if t.shapes <> [] then pr "shapes: %s\n" (String.concat ", " t.shapes);
  pr "digest: %s" (Hardq.Digest.to_hex (digest t));
  Buffer.contents b

(* The query-language frontend: datalog-superset embedding, printer ∘
   parser round-trips, positioned errors, and the shared solver-name
   table. *)

let parse_ok what s =
  match Lang.Parser.parse s with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "%s: %s on %S" what (Lang.Ast.error_to_string e) s

let check_roundtrip what ast =
  let s = Lang.Ast.to_string ast in
  let ast' = parse_ok what s in
  if not (Lang.Ast.equal ast ast') then
    Alcotest.failf "%s: %S reparsed differently (got %S)" what s
      (Lang.Ast.to_string ast');
  (* printed form is a fixpoint *)
  Alcotest.(check string) (what ^ ": print fixpoint") s (Lang.Ast.to_string ast')

(* ---------------------------------------------------------------- *)
(* The datalog fragment embeds unchanged                             *)
(* ---------------------------------------------------------------- *)

let datalog_examples =
  [
    "Q() :- P(_; x; y).";
    "Q() :- P(s; x; y), C(x, \"A\", _, _), C(y, \"B\", _, _).";
    "Q() :- P(_; x; y), C(x, _, g, n), n >= 3.";
    "Q() :- P(s; x; y), S(s, \"T1\").";
    "Q() :- P(_; \"i0\"; x0), C(x0, \"A\", _, _).";
  ]

(* Raw texts: both frontends read terms with Ppd.Parser's rules, so a
   capitalized identifier is a string constant (the paper's Q2) and the
   language's keywords are variables inside terms. *)
let raw_datalog_texts =
  [
    "Q() :- P(_, _; x; y), C(x, D, _, _, e, _), C(y, R, _, _, e, _).";
    "Q() :- P(_, _; x; y), C(x, D, _, _, key, _), C(y, R, _, _, key, _).";
    "Q() :- P(count; top; x), C(top, Male, _), count >= 2.";
    "Q() :- P(_; x'; y), C(x', \"A\", _, _), C(y, B, _, _).";
  ]

let check_embedding s =
  let q = Ppd.Parser.parse s in
  let ast = parse_ok "datalog" s in
  if not (Lang.Ast.equal ast (Lang.Ast.of_query q)) then
    Alcotest.failf "embedding mismatch for %S" s;
  (* and the canonical rendering coincides with the datalog one *)
  Alcotest.(check string) "rendering" (Ppd.Query.to_string q)
    (Lang.Ast.to_string ast)

let unit_datalog_superset () = List.iter check_embedding datalog_examples
let unit_raw_texts_same_meaning () = List.iter check_embedding raw_datalog_texts

let unit_sugar () =
  let ast =
    parse_ok "sugar"
      "count possibly using two-label Q() :- prefers(\"i0\", \"i1\") or rank(\"i2\") \
       <= 2 and top(3, \"i0\")."
  in
  Alcotest.(check int) "two disjuncts" 2 (List.length ast.Lang.Ast.body);
  (match ast.Lang.Ast.task with
  | Lang.Ast.Count -> ()
  | _ -> Alcotest.fail "expected count task");
  (match ast.Lang.Ast.modal with
  | Some Lang.Ast.Possibly -> ()
  | _ -> Alcotest.fail "expected possibly modal");
  (match ast.Lang.Ast.using with
  | Some (Hardq.Solver.Exact `Two_label) -> ()
  | _ -> Alcotest.fail "expected two-label hint");
  (match ast.Lang.Ast.body with
  | [ [ Lang.Ast.Prefers _ ]; [ Lang.Ast.Rank _; Lang.Ast.Top _ ] ] -> ()
  | _ -> Alcotest.fail "unexpected atom shapes");
  check_roundtrip "sugar" ast

let unit_prefix_order () =
  (* prefixes parse in any order; the printer normalizes *)
  let a = parse_ok "a" "possibly count Q() :- prefers(x, y)." in
  let b = parse_ok "b" "count possibly Q() :- prefers(x, y)." in
  if not (Lang.Ast.equal a b) then Alcotest.fail "prefix order should not matter"

let unit_aggregates () =
  let a = parse_ok "sum" "sum(key 0) Q() :- P(_; x; y)." in
  (match a.Lang.Ast.task with
  | Lang.Ast.Sum (Lang.Ast.Key_index 0) -> ()
  | _ -> Alcotest.fail "expected sum(key 0)");
  let b = parse_ok "avg" "avg(C.num) Q() :- P(_; x; y)." in
  (match b.Lang.Ast.task with
  | Lang.Ast.Avg (Lang.Ast.Joined { relation = "C"; attr = "num" }) -> ()
  | _ -> Alcotest.fail "expected avg(C.num)");
  check_roundtrip "sum" a;
  check_roundtrip "avg" b

let unit_top_prefix_vs_atom () =
  let p = parse_ok "prefix" "top(2) Q() :- P(_; x; y)." in
  (match p.Lang.Ast.task with
  | Lang.Ast.Top_sessions 2 -> ()
  | _ -> Alcotest.fail "expected top(2) task");
  let a = parse_ok "atom" "top(2, \"i0\")." in
  match a.Lang.Ast.body with
  | [ [ Lang.Ast.Top { k = 2; _ } ] ] -> ()
  | _ -> Alcotest.fail "expected a top atom"

(* ---------------------------------------------------------------- *)
(* Errors: positioned, and solver names shared with Solver.of_string *)
(* ---------------------------------------------------------------- *)

let unit_error_positions () =
  let bad what s =
    match Lang.Parser.parse s with
    | Ok _ -> Alcotest.failf "%s: %S should not parse" what s
    | Error { Lang.Ast.pos; msg } ->
        if pos < 0 || pos > String.length s then
          Alcotest.failf "%s: position %d outside %S" what pos s;
        if msg = "" then Alcotest.failf "%s: empty message" what;
        (* the rendered form carries the offset, like Ppd.Parser errors *)
        let rendered = Lang.Ast.error_to_string { Lang.Ast.pos; msg } in
        if not (Helpers.contains rendered "at offset") then
          Alcotest.failf "%s: no offset in %S" what rendered
  in
  bad "unterminated string" "Q() :- C(x, \"Democr).";
  bad "bad char" "Q() :- P(_; x; y) ! r.";
  bad "missing body" "Q() :- ";
  bad "trailing" "Q() :- P(_; x; y). extra";
  bad "bad group count" "Q() :- P(_; x).";
  bad "duplicate task" "count count Q() :- P(_; x; y).";
  bad "rank needs comparison" "Q() :- rank(x), P(_; x; y).";
  bad "empty input" "";
  bad "connective without an atom" "Q() :- P(_; x; y) or ."

let unit_using_shares_solver_names () =
  match Lang.Parser.parse "using nope Q() :- P(_; x; y)." with
  | Ok _ -> Alcotest.fail "unknown solver accepted"
  | Error { Lang.Ast.msg; _ } ->
      (* the language rejects exactly what Solver.of_string rejects, with
         the same enumeration of valid names *)
      let solver_msg =
        match Hardq.Solver.of_string "nope" with
        | Error m -> m
        | Ok _ -> Alcotest.fail "Solver.of_string accepted nope"
      in
      Alcotest.(check string) "same message" solver_msg msg;
      List.iter
        (fun name ->
          if not (Helpers.contains msg name) then
            Alcotest.failf "error does not enumerate %s" name)
        Hardq.Solver.valid_names

let unit_using_accepts_every_valid_name () =
  List.iter
    (fun name ->
      let s = Printf.sprintf "using %s Q() :- P(_; x; y)." name in
      let ast = parse_ok "using" s in
      match ast.Lang.Ast.using with
      | Some solver -> (
          match Hardq.Solver.of_string name with
          | Ok expected ->
              if solver <> expected then Alcotest.failf "wrong solver for %s" name
          | Error m -> Alcotest.fail m)
      | None -> Alcotest.failf "hint lost for %s" name)
    Hardq.Solver.valid_names

(* ---------------------------------------------------------------- *)
(* QCheck: round-trips over random ASTs and random truncations       *)
(* ---------------------------------------------------------------- *)

let rand_term r =
  match Util.Rng.int r 4 with
  | 0 -> Ppd.Query.Var (Printf.sprintf "x%d" (Util.Rng.int r 3))
  | 1 -> Ppd.Query.Wildcard
  | 2 -> Ppd.Query.Const (Ppd.Value.Int (Util.Rng.int r 9 - 3))
  | _ -> Ppd.Query.Const (Ppd.Value.Str (Printf.sprintf "i%d" (Util.Rng.int r 5)))

let rank_ops =
  [|
    Prefs.Rank_pred.Le; Prefs.Rank_pred.Lt; Prefs.Rank_pred.Ge; Prefs.Rank_pred.Gt;
    Prefs.Rank_pred.Eq; Prefs.Rank_pred.Neq;
  |]

let cmp_ops = [| Ppd.Value.Eq; Neq; Lt; Le; Gt; Ge |]

let rand_atom r =
  match Util.Rng.int r 6 with
  | 0 -> Lang.Ast.Prefers { left = rand_term r; right = rand_term r }
  | 1 ->
      Lang.Ast.Datalog
        (Ppd.Query.Pref
           {
             rel = "P";
             session =
               [ (if Util.Rng.bool r then Ppd.Query.Var "s" else Ppd.Query.Wildcard) ];
             left = rand_term r;
             right = rand_term r;
           })
  | 2 ->
      Lang.Ast.Datalog
        (Ppd.Query.Rel
           { rel = "C"; terms = List.init (1 + Util.Rng.int r 3) (fun _ -> rand_term r) })
  | 3 ->
      Lang.Ast.Datalog
        (Ppd.Query.Cmp
           { lhs = rand_term r; op = Util.Rng.pick r cmp_ops; rhs = rand_term r })
  | 4 ->
      Lang.Ast.Rank
        { item = rand_term r; op = Util.Rng.pick r rank_ops; k = Util.Rng.int r 7 - 1 }
  | _ -> Lang.Ast.Top { k = 1 + Util.Rng.int r 4; item = rand_term r }

let rand_ast r =
  let body =
    List.init (1 + Util.Rng.int r 3) (fun _ ->
        List.init (1 + Util.Rng.int r 3) (fun _ -> rand_atom r))
  in
  let task =
    match Util.Rng.int r 5 with
    | 0 -> Lang.Ast.Prob
    | 1 -> Lang.Ast.Count
    | 2 -> Lang.Ast.Sum (Lang.Ast.Key_index (Util.Rng.int r 3))
    | 3 -> Lang.Ast.Avg (Lang.Ast.Joined { relation = "C"; attr = "num" })
    | _ -> Lang.Ast.Top_sessions (1 + Util.Rng.int r 3)
  in
  let modal =
    match Util.Rng.int r 3 with
    | 0 -> None
    | 1 -> Some Lang.Ast.Possibly
    | _ -> Some Lang.Ast.Certainly
  in
  let using =
    if Util.Rng.bool r then None
    else
      let name =
        Util.Rng.pick_list r [ "auto"; "two-label"; "general"; "rejection"; "mis-lite" ]
      in
      match Hardq.Solver.of_string name with Ok s -> Some s | Error _ -> None
  in
  let name, head =
    if Util.Rng.bool r then ("Q", [])
    else ("Answers", if Util.Rng.bool r then [] else [ "x0" ])
  in
  { Lang.Ast.name; head; task; modal; using; body }

let prop_roundtrip =
  Helpers.qtest ~count:500 "lang: parse (to_string ast) = ast"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Util.Rng.make seed in
      let ast = rand_ast r in
      let s = Lang.Ast.to_string ast in
      (match Lang.Parser.parse s with
      | Ok ast' ->
          if not (Lang.Ast.equal ast ast') then
            QCheck.Test.fail_reportf "round-trip broke on %S" s
      | Error e ->
          QCheck.Test.fail_reportf "unparseable print %S: %s" s
            (Lang.Ast.error_to_string e));
      true)

let prop_generated_queries_embed =
  Helpers.qtest ~count:200 "lang: Gen datalog queries embed and round-trip"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let case = Qa.Gen.case (Util.Rng.make seed) in
      let q = case.Ppd.Case.query in
      let s = Ppd.Query.to_string q in
      (match Lang.Parser.parse s with
      | Ok ast ->
          if not (Lang.Ast.equal ast (Lang.Ast.of_query q)) then
            QCheck.Test.fail_reportf "embedding mismatch on %S" s;
          if Lang.Ast.to_string ast <> s then
            QCheck.Test.fail_reportf "rendering drifted on %S" s
      | Error e ->
          QCheck.Test.fail_reportf "datalog text rejected %S: %s" s
            (Lang.Ast.error_to_string e));
      true)

let prop_error_positions_in_bounds =
  Helpers.qtest ~count:500 "lang: truncated inputs error inside the input"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Util.Rng.make seed in
      let s = Lang.Ast.to_string (rand_ast r) in
      let cut = Util.Rng.int r (String.length s) in
      let s' = String.sub s 0 cut in
      (match Lang.Parser.parse s' with
      | Ok _ -> () (* some prefixes are complete queries *)
      | Error { Lang.Ast.pos; _ } ->
          if pos < 0 || pos > String.length s' then
            QCheck.Test.fail_reportf "position %d outside %S" pos s');
      true)

let suites =
  [
    ( "lang",
      [
        Alcotest.test_case "datalog is a sub-language (embedding + rendering)"
          `Quick unit_datalog_superset;
        Alcotest.test_case "sugar: prefers/rank/top, prefixes, or" `Quick unit_sugar;
        Alcotest.test_case "prefix order is irrelevant" `Quick unit_prefix_order;
        Alcotest.test_case "aggregate prefixes" `Quick unit_aggregates;
        Alcotest.test_case "top(k) prefix vs top(k, x) atom" `Quick
          unit_top_prefix_vs_atom;
        Alcotest.test_case "errors carry in-bounds offsets" `Quick
          unit_error_positions;
        Alcotest.test_case "using: same names and message as Solver.of_string"
          `Quick unit_using_shares_solver_names;
        Alcotest.test_case "using: every Solver.valid_names entry parses" `Quick
          unit_using_accepts_every_valid_name;
        prop_roundtrip;
        prop_generated_queries_embed;
        prop_error_positions_in_bounds;
      ] );
    ( "lang.datalog-identity",
      [
        Alcotest.test_case "raw texts mean the same to both parsers" `Quick
          unit_raw_texts_same_meaning;
      ] );
  ]

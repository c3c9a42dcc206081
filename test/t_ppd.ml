(* Parser, classification, grounding (Algorithm 2), query evaluation,
   Count-Session, Most-Probable-Session, request grouping. *)

let tc = Alcotest.test_case
let v = Ppd.Value.str
let vi = Ppd.Value.int

(* The Figure 1 database: 4 candidates, 3 polls sessions. *)
let figure1_db ?(phis = (0.3, 0.3, 0.5)) () =
  let candidates =
    [
      (* candidate, party, sex, age, edu, reg *)
      [ v "Trump"; v "R"; v "M"; vi 70; v "BS"; v "NE" ];
      [ v "Clinton"; v "D"; v "F"; vi 69; v "JD"; v "NE" ];
      [ v "Sanders"; v "D"; v "M"; vi 75; v "BS"; v "NE" ];
      [ v "Rubio"; v "R"; v "M"; vi 45; v "JD"; v "S" ];
    ]
  in
  let items =
    Ppd.Relation.make ~name:"C"
      ~attrs:[ "candidate"; "party"; "sex"; "age"; "edu"; "reg" ]
      candidates
  in
  let voters =
    Ppd.Relation.make ~name:"V" ~attrs:[ "voter"; "sex"; "age"; "edu" ]
      [
        [ v "Ann"; v "F"; vi 20; v "BS" ];
        [ v "Bob"; v "M"; vi 30; v "BS" ];
        [ v "Dave"; v "M"; vi 50; v "MS" ];
      ]
  in
  (* item indices: Trump 0, Clinton 1, Sanders 2, Rubio 3 *)
  let p1, p2, p3 = phis in
  let mal center phi = Rim.Mallows.make ~center:(Prefs.Ranking.of_list center) ~phi in
  let polls =
    Ppd.Database.p_relation ~name:"P" ~key_attrs:[ "voter"; "date" ]
      [
        { Ppd.Database.key = [| v "Ann"; v "5/5" |]; model = mal [ 1; 2; 3; 0 ] p1 };
        { Ppd.Database.key = [| v "Bob"; v "5/5" |]; model = mal [ 0; 3; 2; 1 ] p2 };
        { Ppd.Database.key = [| v "Dave"; v "6/5" |]; model = mal [ 1; 2; 3; 0 ] p3 };
      ]
  in
  Ppd.Database.make ~items ~relations:[ voters ] ~preferences:[ polls ] ()

let q0 = "Q0() :- P(\"Ann\", \"5/5\"; \"Trump\"; \"Clinton\"), P(\"Ann\", \"5/5\"; \"Trump\"; \"Rubio\")."
let q1 = "Q1() :- P(_, _; c1; c2), C(c1, _, \"F\", _, _, _), C(c2, _, \"M\", _, _, _)."
let q2 = "Q2() :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _), C(c2, \"R\", _, _, e, _)."

let unit_parser_q2 () =
  let q = Ppd.Parser.parse q2 in
  Alcotest.(check int) "three atoms" 3 (List.length q.Ppd.Query.body);
  Alcotest.(check (list string)) "vars" [ "c1"; "c2"; "e" ] (Ppd.Query.vars q);
  Alcotest.(check int) "one pref atom" 1 (List.length (Ppd.Query.pref_atoms q));
  (* Bare capitalized identifiers are constants. *)
  let q' = Ppd.Parser.parse "Q() :- P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _)" in
  Alcotest.(check bool) "bare constants parse like quoted ones" true
    (q.Ppd.Query.body = q'.Ppd.Query.body)

let unit_parser_operators () =
  let q =
    Ppd.Parser.parse
      "Q() :- P(_; x; y), M(x, _, year1, g), year1 >= 1990, M(y, _, year2, g), \
       year2 < 1990."
  in
  let cmps = Ppd.Query.cmp_atoms q in
  Alcotest.(check int) "two comparisons" 2 (List.length cmps);
  match cmps with
  | [ (Ppd.Query.Var "year1", Ppd.Value.Ge, Ppd.Query.Const (Ppd.Value.Int 1990));
      (Ppd.Query.Var "year2", Ppd.Value.Lt, Ppd.Query.Const (Ppd.Value.Int 1990)) ] ->
      ()
  | _ -> Alcotest.fail "unexpected comparison structure"

let unit_parser_errors () =
  let bad s =
    match Ppd.Parser.parse_result s with
    | Ok _ -> Alcotest.failf "expected parse error for %s" s
    | Error _ -> ()
  in
  bad "Q() :- ";
  bad "Q(x) :- P(_; a; b).";
  bad "Q() :- P(_; a; b) garbage";
  bad "Q() :- C(c1, D).";
  (* no preference atom *)
  bad "Q() :- P(_; a; b; c; d).";
  bad "Q() :- x < ."

(* Error *messages*: every failure must localize itself with a byte
   offset — the server relays these verbatim to remote clients who never
   see the query in a terminal. *)
let unit_parser_error_positions () =
  let bad_with_offset what s =
    match Ppd.Parser.parse_result s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error for %s" what s
    | Error msg ->
        let has_offset =
          let nh = String.length msg in
          let rec at i = i + 9 <= nh && (String.sub msg i 9 = "at offset" || at (i + 1)) in
          at 0
        in
        if not has_offset then
          Alcotest.failf "%s: error message carries no offset: %s" what msg
  in
  bad_with_offset "unterminated string" "Q() :- C(c1, \"Democr).";
  bad_with_offset "bad operator" "Q() :- P(_; x; y), x ! y.";
  bad_with_offset "wrong-arity pref atom" "Q() :- P(_; x).";
  bad_with_offset "missing body" "Q() :- ";
  bad_with_offset "trailing garbage" "Q() :- P(_; a; b). extra"

let unit_classification () =
  let db = figure1_db () in
  Alcotest.(check (list string)) "V+(Q0) empty" []
    (Ppd.Compile.v_plus db (Ppd.Parser.parse q0));
  Alcotest.(check (list string)) "V+(Q1) empty" []
    (Ppd.Compile.v_plus db (Ppd.Parser.parse q1));
  Alcotest.(check (list string)) "V+(Q2) = {e}" [ "e" ]
    (Ppd.Compile.v_plus db (Ppd.Parser.parse q2));
  Alcotest.(check bool) "Q1 itemwise" true
    (Ppd.Compile.is_itemwise db (Ppd.Parser.parse q1));
  Alcotest.(check bool) "Q2 non-itemwise" false
    (Ppd.Compile.is_itemwise db (Ppd.Parser.parse q2))

let unit_q2_decomposition () =
  let db = figure1_db () in
  let compiled = Ppd.Compile.compile db (Ppd.Parser.parse q2) in
  Alcotest.(check int) "3 sessions" 3 (List.length compiled.Ppd.Compile.requests);
  List.iter
    (fun r ->
      match r.Ppd.Compile.union with
      | Some u ->
          (* e ranges over {BS, JD}: two two-label patterns. *)
          Alcotest.(check int) "two patterns" 2 (Prefs.Pattern_union.size u);
          Alcotest.(check bool) "two-label kind" true
            (Prefs.Pattern_union.kind u = Prefs.Pattern_union.Two_label)
      | None -> Alcotest.fail "expected a pattern union")
    compiled.Ppd.Compile.requests

(* Brute-force semantics of a query on the Figure 1 database: for each
   session enumerate rankings and check the CQ directly. *)
let brute_q2_session db (s : Ppd.Database.session) =
  let model = Rim.Mallows.to_rim s.Ppd.Database.model in
  let party i = Ppd.Database.item_attr db i "party" in
  let edu i = Ppd.Database.item_attr db i "edu" in
  let m = Ppd.Database.m db in
  let total = ref 0. in
  Prefs.Ranking.all m (fun tau ->
      let holds = ref false in
      for a = 0 to m - 1 do
        for b = 0 to m - 1 do
          if
            a <> b
            && Prefs.Ranking.prefers tau a b
            && Ppd.Value.equal (party a) (Ppd.Value.str "D")
            && Ppd.Value.equal (party b) (Ppd.Value.str "R")
            && Ppd.Value.equal (edu a) (edu b)
          then holds := true
        done
      done;
      if !holds then total := !total +. Rim.Model.prob model tau);
  !total

let unit_q2_evaluation_matches_brute () =
  let db = figure1_db () in
  let rng = Helpers.rng 5 in
  let probs =
    Ppd.Solve.per_session ~solver:(Hardq.Solver.Exact `Auto) db (Ppd.Parser.parse q2)
      rng
  in
  let compiled = Ppd.Compile.compile db (Ppd.Parser.parse q2) in
  List.iter2
    (fun (session, p) _req ->
      let expected = brute_q2_session db session in
      Helpers.check_close ~eps:1e-9 "Q2 per-session" expected p)
    probs compiled.Ppd.Compile.requests;
  (* Aggregation. *)
  let expected_bool =
    1. -. List.fold_left (fun acc (_, p) -> acc *. (1. -. p)) 1. probs
  in
  Helpers.check_close "boolean aggregation" expected_bool
    (Ppd.Solve.boolean_prob db (Ppd.Parser.parse q2) (Helpers.rng 5));
  let expected_count = List.fold_left (fun acc (_, p) -> acc +. p) 0. probs in
  Helpers.check_close "count aggregation" expected_count
    (Ppd.Solve.count_sessions db (Ppd.Parser.parse q2) (Helpers.rng 5))

let unit_q0_constants () =
  let db = figure1_db () in
  let rng = Helpers.rng 6 in
  let probs = Ppd.Solve.per_session db (Ppd.Parser.parse q0) rng in
  (* Session constants restrict to Ann's 5/5 poll. *)
  Alcotest.(check int) "only Ann's session" 1 (List.length probs);
  let session, p = List.hd probs in
  Alcotest.(check bool) "Ann" true
    (Ppd.Value.equal session.Ppd.Database.key.(0) (v "Ann"));
  (* Brute: Trump preferred to both Clinton and Rubio. *)
  let model = Rim.Mallows.to_rim session.Ppd.Database.model in
  let expected = ref 0. in
  Prefs.Ranking.all 4 (fun tau ->
      if Prefs.Ranking.prefers tau 0 1 && Prefs.Ranking.prefers tau 0 3 then
        expected := !expected +. Rim.Model.prob model tau);
  Helpers.check_close "Q0 probability" !expected p

let unit_solver_agreement_on_q1 () =
  let db = figure1_db () in
  let q = Ppd.Parser.parse q1 in
  let reference = Ppd.Solve.per_session ~solver:(Hardq.Solver.Exact `Brute) db q (Helpers.rng 7) in
  List.iter
    (fun which ->
      let got = Ppd.Solve.per_session ~solver:(Hardq.Solver.Exact which) db q (Helpers.rng 7) in
      List.iter2
        (fun (_, a) (_, b) ->
          Helpers.check_close ~eps:1e-9 ("solver " ^ Hardq.Solver.exact_name which) a b)
        reference got)
    [ `Auto; `Two_label; `Bipartite; `General ]

let unit_grouping_equivalence () =
  let db = figure1_db ~phis:(0.3, 0.3, 0.3) () in
  let q = Ppd.Parser.parse q1 in
  let grouped = Ppd.Solve.per_session ~group:true db q (Helpers.rng 8) in
  let naive = Ppd.Solve.per_session ~group:false db q (Helpers.rng 8) in
  List.iter2
    (fun (_, a) (_, b) -> Helpers.check_close ~eps:1e-12 "grouping equivalence" a b)
    grouped naive;
  (* Ann and Dave share center; with equal phi their requests coincide. *)
  match grouped with
  | [ (_, ann); (_, _); (_, dave) ] ->
      Helpers.check_close ~eps:1e-12 "identical sessions identical probs" ann dave
  | _ -> Alcotest.fail "expected three sessions"

let unit_session_join_binding () =
  (* A query anchored on voter demographics: the pattern depends on the
     session's voter. *)
  let db = figure1_db () in
  let q =
    Ppd.Parser.parse
      "Q() :- P(w, _; c1; c2), V(w, sex, _, _), C(c1, _, sex, _, _, _), C(c2, _, \
       _, _, _, _)."
  in
  let compiled = Ppd.Compile.compile db q in
  Alcotest.(check int) "3 sessions" 3 (List.length compiled.Ppd.Compile.requests);
  List.iter
    (fun r ->
      match (r.Ppd.Compile.session.Ppd.Database.key.(0), r.Ppd.Compile.union) with
      | key, Some u -> (
          let pat = List.hd (Prefs.Pattern_union.patterns u) in
          let node0 = Prefs.Pattern.node pat 0 in
          let lab_name = Ppd.Database.label_name db (List.hd node0) in
          (* Ann is female; Bob and Dave are male. *)
          match Ppd.Value.to_string key with
          | "Ann" -> Alcotest.(check string) "Ann's pattern" "sex=F" lab_name
          | _ -> Alcotest.(check string) "male voters" "sex=M" lab_name)
      | _, None -> Alcotest.fail "expected a union")
    compiled.Ppd.Compile.requests;
  (* The grounding reads only [sex], not the session variable [w]: Bob
     and Dave bind it alike, so they share one union value. *)
  let union_of name =
    List.find_map
      (fun r ->
        if Ppd.Value.to_string r.Ppd.Compile.session.Ppd.Database.key.(0) = name
        then r.Ppd.Compile.union
        else None)
      compiled.Ppd.Compile.requests
  in
  match (union_of "Bob", union_of "Dave", union_of "Ann") with
  | Some bob, Some dave, Some ann ->
      Alcotest.(check bool) "Bob and Dave share one union" true (bob == dave);
      Alcotest.(check bool) "Ann keeps her own" false (ann == bob)
  | _ -> Alcotest.fail "expected unions for Ann, Bob and Dave"

(* A query with no session atom grounds the same environments in every
   session, so every session's row holds one shared union value. *)
let unit_equal_environments_share_union () =
  let db = Datasets.Polls.generate ~n_candidates:8 ~n_voters:20 ~seed:5 () in
  let compiled =
    Ppd.Compile.compile db (Ppd.Parser.parse Datasets.Polls.query_two_label)
  in
  match List.map (fun r -> r.Ppd.Compile.union) compiled.Ppd.Compile.requests with
  | Some u :: rest ->
      Alcotest.(check int) "20 sessions" 19 (List.length rest);
      List.iter
        (function
          | Some u' when u' == u -> ()
          | _ -> Alcotest.fail "a session holds its own union")
        rest
  | _ -> Alcotest.fail "expected a union"

let unit_unconstrained_item_var () =
  let db = figure1_db () in
  let q = Ppd.Parser.parse "Q() :- P(_, _; c1; c2), C(c1, _, \"F\", _, _, _)." in
  let rng = Helpers.rng 9 in
  let probs = Ppd.Solve.per_session ~solver:(Hardq.Solver.Exact `Brute) db q rng in
  (* "some female preferred to anything": only rankings with Clinton last
     fail. *)
  List.iter
    (fun ((s : Ppd.Database.session), p) ->
      let model = Rim.Mallows.to_rim s.Ppd.Database.model in
      let expected = ref 0. in
      Prefs.Ranking.all 4 (fun tau ->
          if Prefs.Ranking.position_of tau 1 < 3 then
            expected := !expected +. Rim.Model.prob model tau);
      Helpers.check_close "unconstrained right endpoint" !expected p)
    probs

let unit_impossible_query () =
  let db = figure1_db () in
  (* party = "X" matches no candidate. *)
  let q = Ppd.Parser.parse "Q() :- P(_, _; c1; c2), C(c1, \"X\", _, _, _, _)." in
  Helpers.check_close "impossible query" 0.
    (Ppd.Solve.boolean_prob db q (Helpers.rng 10));
  (* x preferred to itself is unsatisfiable. *)
  let q2 = Ppd.Parser.parse "Q() :- P(_, _; x; x)." in
  Helpers.check_close "x over x" 0. (Ppd.Solve.boolean_prob db q2 (Helpers.rng 10))

let unit_cyclic_preferences_unsat () =
  let db = figure1_db () in
  let q = Ppd.Parser.parse "Q() :- P(_, _; x; y), P(_, _; y; x)." in
  Helpers.check_close "cyclic preference" 0.
    (Ppd.Solve.boolean_prob db q (Helpers.rng 11))

let unit_unsupported_queries () =
  let db = figure1_db () in
  let check_unsupported s =
    match Ppd.Compile.compile db (Ppd.Parser.parse s) with
    | _ -> Alcotest.failf "expected Unsupported for %s" s
    | exception Ppd.Compile.Unsupported _ -> ()
  in
  (* Different session terms: not sessionwise. *)
  check_unsupported "Q() :- P(\"Ann\", _; x; y), P(\"Bob\", _; y; z).";
  (* o-relation atom not anchored on a session variable. *)
  check_unsupported "Q() :- P(_, _; x; y), V(\"Ann\", s, _, _), C(x, _, s, _, _, _).";
  (* comparison between two variables *)
  check_unsupported "Q() :- P(_, _; x; y), C(x, _, _, a, _, _), C(y, _, _, b, _, _), a < b."

let unit_topk_strategies_agree () =
  let db = figure1_db ~phis:(0.2, 0.6, 0.8) () in
  let q = Ppd.Parser.parse q1 in
  let naive = Ppd.Solve.top_k ~strategy:`Naive ~k:2 db q (Helpers.rng 12) in
  let e1 = Ppd.Solve.top_k ~strategy:(`Edges 1) ~k:2 db q (Helpers.rng 12) in
  let e2 = Ppd.Solve.top_k ~strategy:(`Edges 2) ~k:2 db q (Helpers.rng 12) in
  let probs r = List.map snd r.Ppd.Solve.results in
  Alcotest.(check int) "k results" 2 (List.length (probs naive));
  List.iter2 (fun a b -> Helpers.check_close ~eps:1e-9 "naive vs 1-edge" a b)
    (probs naive) (probs e1);
  List.iter2 (fun a b -> Helpers.check_close ~eps:1e-9 "naive vs 2-edge" a b)
    (probs naive) (probs e2);
  Alcotest.(check bool) "1-edge prunes or matches naive" true
    (e1.Ppd.Solve.n_exact <= naive.Ppd.Solve.n_exact)

let unit_topk_prunes () =
  (* With one sharp session (phi=0) that satisfies the query and several
     diffuse ones, top-1 with bounds should evaluate fewer sessions. *)
  let candidates =
    [
      [ v "a"; v "D"; v "F"; vi 50; v "BS"; v "NE" ];
      [ v "b"; v "R"; v "M"; vi 50; v "BS"; v "NE" ];
      [ v "c"; v "D"; v "M"; vi 50; v "JD"; v "NE" ];
      [ v "d"; v "R"; v "F"; vi 50; v "JD"; v "NE" ];
    ]
  in
  let items =
    Ppd.Relation.make ~name:"C"
      ~attrs:[ "candidate"; "party"; "sex"; "age"; "edu"; "reg" ]
      candidates
  in
  let mk key center phi =
    {
      Ppd.Database.key = [| v key |];
      model = Rim.Mallows.make ~center:(Prefs.Ranking.of_list center) ~phi;
    }
  in
  let prel =
    Ppd.Database.p_relation ~name:"P" ~key_attrs:[ "voter" ]
      [
        mk "s1" [ 0; 1; 2; 3 ] 0.0; (* female first: satisfies F > M surely *)
        mk "s2" [ 1; 2; 0; 3 ] 0.3;
        mk "s3" [ 2; 1; 3; 0 ] 0.3;
        mk "s4" [ 1; 0; 3; 2 ] 0.3;
      ]
  in
  let db = Ppd.Database.make ~items ~preferences:[ prel ] () in
  let q =
    Ppd.Parser.parse "Q() :- P(_; x; y), C(x, _, \"F\", _, _, _), C(y, _, \"M\", _, _, _)."
  in
  let naive = Ppd.Solve.top_k ~strategy:`Naive ~k:1 db q (Helpers.rng 13) in
  let pruned = Ppd.Solve.top_k ~strategy:(`Edges 1) ~k:1 db q (Helpers.rng 13) in
  Helpers.check_close ~eps:1e-9 "same winner prob" (snd (List.hd naive.Ppd.Solve.results))
    (snd (List.hd pruned.Ppd.Solve.results));
  Alcotest.(check bool) "bounds pruned work" true
    (pruned.Ppd.Solve.n_exact < naive.Ppd.Solve.n_exact)

let unit_derived_labels () =
  let db = figure1_db () in
  let q =
    Ppd.Parser.parse
      "Q() :- P(_, _; x; y), C(x, _, _, agex, _, _), agex >= 70, C(y, _, _, agey, \
       _, _), agey < 70."
  in
  Alcotest.(check (list string)) "no grounding needed" [] (Ppd.Compile.v_plus db q);
  let probs = Ppd.Solve.per_session ~solver:(Hardq.Solver.Exact `Brute) db q (Helpers.rng 14) in
  (* age >= 70: Trump (70), Sanders (75); age < 70: Clinton (69), Rubio (45). *)
  List.iter
    (fun ((s : Ppd.Database.session), p) ->
      let model = Rim.Mallows.to_rim s.Ppd.Database.model in
      let expected = ref 0. in
      Prefs.Ranking.all 4 (fun tau ->
          let old_before x y = Prefs.Ranking.prefers tau x y in
          if
            old_before 0 1 || old_before 0 3 || old_before 2 1 || old_before 2 3
          then expected := !expected +. Rim.Model.prob model tau);
      Helpers.check_close "derived-label semantics" !expected p)
    probs

(* The sequential reference evaluator for [Ppd.Answers]. *)
let solve_reference db rng = List.map (fun q -> Ppd.Solve.boolean_prob db q rng)

let unit_answers_head_variable () =
  let db = figure1_db () in
  (* Which education levels e admit a Democrat with edu e preferred to a
     Republican with edu e? Answers must match the manually substituted
     Boolean queries. *)
  let q =
    Ppd.Parser.parse
      "Q(e) :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _), C(c2, \"R\", _, _, e, _)."
  in
  let answers = Ppd.Answers.evaluate (solve_reference db (Helpers.rng 20)) db q in
  let doms = Ppd.Answers.domains db q in
  Alcotest.(check (list string)) "domain of e" [ "BS"; "JD" ]
    (List.map Ppd.Value.to_string (List.assoc "e" doms));
  List.iter
    (fun (a : Ppd.Answers.answer) ->
      let e = List.hd a.Ppd.Answers.values in
      let boolean =
        Ppd.Parser.parse
          (Printf.sprintf
             "Q() :- P(_, _; c1; c2), C(c1, \"D\", _, _, \"%s\", _), C(c2, \"R\", \
              _, _, \"%s\", _)."
             (Ppd.Value.to_string e) (Ppd.Value.to_string e))
      in
      let expected = Ppd.Solve.boolean_prob db boolean (Helpers.rng 21) in
      Helpers.check_close ~eps:1e-9 "answer confidence" expected a.Ppd.Answers.confidence)
    answers;
  Alcotest.(check int) "two answers" 2 (List.length answers);
  (* Sorted by confidence. *)
  (match answers with
  | [ a1; a2 ] ->
      Alcotest.(check bool) "descending" true
        (a1.Ppd.Answers.confidence >= a2.Ppd.Answers.confidence)
  | _ -> Alcotest.fail "expected two answers");
  (* top-1 is the head of evaluate. *)
  let t1 = Ppd.Answers.top ~k:1 (solve_reference db (Helpers.rng 20)) db q in
  Alcotest.(check int) "top 1" 1 (List.length t1)

let unit_answers_item_head () =
  let db = figure1_db () in
  (* Which candidates are preferred to Clinton by someone? *)
  let q = Ppd.Parser.parse "Q(x) :- P(_, _; x; \"Clinton\")." in
  let answers = Ppd.Answers.evaluate (solve_reference db (Helpers.rng 22)) db q in
  (* Clinton herself never precedes Clinton: 3 non-trivial answers. *)
  Alcotest.(check int) "three answers" 3 (List.length answers);
  List.iter
    (fun (a : Ppd.Answers.answer) ->
      Alcotest.(check bool) "Clinton not an answer" false
        (List.exists (Ppd.Value.equal (v "Clinton")) a.Ppd.Answers.values))
    answers

let unit_answers_reject_boolean_misuse () =
  let db = figure1_db () in
  let q =
    Ppd.Parser.parse "Q(e) :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _)."
  in
  match Ppd.Solve.boolean_prob db q (Helpers.rng 23) with
  | _ -> Alcotest.fail "expected Unsupported for head variables in Boolean eval"
  | exception Ppd.Compile.Unsupported _ -> ()

let unit_aggregate_avg_age () =
  let db = figure1_db () in
  (* Average age of voters who prefer some Democrat to some Republican. *)
  let q =
    Ppd.Parser.parse
      "Q() :- P(w, _; c1; c2), V(w, _, _, _), C(c1, \"D\", _, _, _, _), C(c2, \
       \"R\", _, _, _, _)."
  in
  let value_of = Ppd.Aggregate.joined_value db ~relation:"V" ~key_index:0 ~attr:"age" in
  let r = Ppd.Aggregate.over_sessions ~value_of Ppd.Aggregate.Avg db q (Helpers.rng 24) in
  (* Cross-check against per-session probabilities. *)
  let probs = Ppd.Solve.per_session db q (Helpers.rng 24) in
  let num =
    List.fold_left
      (fun acc ((s : Ppd.Database.session), p) ->
        let age =
          match Option.get (value_of s) with a -> a
        in
        acc +. (p *. age))
      0. probs
  in
  let den = List.fold_left (fun acc (_, p) -> acc +. p) 0. probs in
  Helpers.check_close ~eps:1e-9 "avg age" (num /. den) r.Ppd.Aggregate.value;
  Helpers.check_close ~eps:1e-9 "expected count" den r.Ppd.Aggregate.expected_count;
  let rsum = Ppd.Aggregate.over_sessions ~value_of Ppd.Aggregate.Sum db q (Helpers.rng 24) in
  Helpers.check_close ~eps:1e-9 "sum" num rsum.Ppd.Aggregate.value;
  let rcount =
    Ppd.Aggregate.over_sessions ~value_of Ppd.Aggregate.Count db q (Helpers.rng 24)
  in
  Helpers.check_close ~eps:1e-9 "count" den rcount.Ppd.Aggregate.value

(* Linearity of aggregation on random databases: Sum with the constant
   value 1 is exactly Count, and Avg is the ratio of the two. The DBs
   and CQs come from the QA generator, so the property covers the same
   instance space as the fuzzer. *)
let prop_aggregate_linearity =
  Helpers.qtest ~count:30 "Sum(const 1) = Count and Avg = Sum/Count"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let { Ppd.Case.db; query; _ } = Qa.Gen.case (Util.Rng.derive seed 2) in
      let agg ~value_of op =
        Ppd.Aggregate.over_sessions ~value_of op db query (Helpers.rng 4)
      in
      match agg ~value_of:(fun _ -> Some 1.0) Ppd.Aggregate.Sum with
      | exception Ppd.Compile.Unsupported _ -> true (* vacuous draw *)
      | exception Ppd.Compile.Grounding_too_large _ -> true
      | sum1 ->
          let count = agg ~value_of:(fun _ -> Some 1.0) Ppd.Aggregate.Count in
          if abs_float (sum1.Ppd.Aggregate.value -. count.Ppd.Aggregate.value) > 1e-9
          then
            QCheck.Test.fail_reportf "Sum(1)=%.17g but Count=%.17g"
              sum1.Ppd.Aggregate.value count.Ppd.Aggregate.value;
          (* A varying (but deterministic) per-session value for Avg. *)
          let value_of (s : Ppd.Database.session) =
            Some (float_of_int (1 + (Hashtbl.hash s.Ppd.Database.key mod 7)))
          in
          let sum = agg ~value_of Ppd.Aggregate.Sum in
          let avg = agg ~value_of Ppd.Aggregate.Avg in
          (if count.Ppd.Aggregate.value > 1e-12 then
             let expected = sum.Ppd.Aggregate.value /. count.Ppd.Aggregate.value in
             if
               abs_float (avg.Ppd.Aggregate.value -. expected)
               > 1e-9 *. Float.max 1. (abs_float expected)
             then
               QCheck.Test.fail_reportf "Avg=%.17g but Sum/Count=%.17g"
                 avg.Ppd.Aggregate.value expected);
          true)

let suites =
  [
    ( "ppd.parser",
      [
        tc "parses Q2" `Quick unit_parser_q2;
        tc "parses comparisons" `Quick unit_parser_operators;
        tc "rejects malformed queries" `Quick unit_parser_errors;
        tc "error messages carry byte offsets" `Quick
          unit_parser_error_positions;
      ] );
    ( "ppd.compile",
      [
        tc "classification and V+" `Quick unit_classification;
        tc "Q2 decomposes into {BS, JD}" `Quick unit_q2_decomposition;
        tc "session join binds per session" `Quick unit_session_join_binding;
        tc "equal environments share one union" `Quick
          unit_equal_environments_share_union;
        tc "derived comparison labels" `Quick unit_derived_labels;
        tc "unsupported fragments rejected" `Quick unit_unsupported_queries;
      ] );
    ( "ppd.eval",
      [
        tc "Q2 matches brute-force CQ semantics" `Quick unit_q2_evaluation_matches_brute;
        tc "Q0 with item and session constants" `Quick unit_q0_constants;
        tc "all exact solvers agree on Q1" `Quick unit_solver_agreement_on_q1;
        tc "grouping is lossless" `Quick unit_grouping_equivalence;
        tc "unconstrained item variable" `Quick unit_unconstrained_item_var;
        tc "impossible queries" `Quick unit_impossible_query;
        tc "cyclic preferences" `Quick unit_cyclic_preferences_unsat;
        tc "top-k strategies agree" `Quick unit_topk_strategies_agree;
        tc "top-k bounds prune" `Quick unit_topk_prunes;
      ] );
    ( "ppd.answers",
      [
        tc "head variable answers" `Quick unit_answers_head_variable;
        tc "item-variable heads" `Quick unit_answers_item_head;
        tc "boolean eval rejects heads" `Quick unit_answers_reject_boolean_misuse;
      ] );
    ( "ppd.aggregate",
      [
        tc "avg/sum/count over sessions" `Quick unit_aggregate_avg_age;
        prop_aggregate_linearity;
      ] );
  ]

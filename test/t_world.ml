(* Possible-world semantics: the direct Monte-Carlo oracle for the whole
   query-evaluation pipeline. *)

let tc = Alcotest.test_case

let check_abs ~tol what expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.4f, got %.4f (tol %.3f)" what expected actual tol

let unit_world_deterministic () =
  (* With phi = 0 every world equals the centers: query answers are 0/1 and
     World.holds must agree with direct inspection. *)
  let db = T_ppd.figure1_db ~phis:(0., 0., 0.) () in
  let w = Ppd.World.sample db (Helpers.rng 1) in
  (* Ann's center is <Clinton, Sanders, Rubio, Trump>. *)
  let tau = Ppd.World.ranking_of w ~prel:"P" 0 in
  Alcotest.(check int) "Clinton first" 1 (Prefs.Ranking.item_at tau 0);
  let q_yes =
    Ppd.Parser.parse "Q() :- P(\"Ann\", _; \"Clinton\"; \"Trump\")."
  in
  Alcotest.(check bool) "Clinton over Trump for Ann" true (Ppd.World.holds db w q_yes);
  let q_no = Ppd.Parser.parse "Q() :- P(\"Ann\", _; \"Trump\"; \"Clinton\")." in
  Alcotest.(check bool) "Trump over Clinton fails" false (Ppd.World.holds db w q_no);
  (* Join through the voters relation. *)
  let q_join =
    Ppd.Parser.parse
      "Q() :- P(v, _; \"Clinton\"; \"Trump\"), V(v, \"F\", _, _)."
  in
  Alcotest.(check bool) "female voter prefers Clinton" true
    (Ppd.World.holds db w q_join);
  let q_join_no =
    Ppd.Parser.parse
      "Q() :- P(v, _; \"Trump\"; \"Clinton\"), V(v, \"F\", _, _)."
  in
  Alcotest.(check bool) "no female voter prefers Trump to Clinton" false
    (Ppd.World.holds db w q_join_no)

(* The decisive end-to-end test: the engine's exact probabilities must match
   Monte-Carlo over possible worlds for a diverse set of hard queries. *)
let unit_engine_matches_worlds () =
  let db = T_ppd.figure1_db ~phis:(0.4, 0.6, 0.5) () in
  let queries =
    [
      (* itemwise *)
      "Q() :- P(_, _; c1; c2), C(c1, _, \"F\", _, _, _), C(c2, _, \"M\", _, _, _).";
      (* non-itemwise: shared education variable *)
      "Q() :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _), C(c2, \"R\", _, _, e, _).";
      (* session constants + item constants, self-join *)
      "Q() :- P(\"Ann\", \"5/5\"; \"Trump\"; \"Clinton\"), P(\"Ann\", \"5/5\"; \
       \"Trump\"; \"Rubio\").";
      (* session join with demographic binding *)
      "Q() :- P(w, _; c1; c2), V(w, sex, _, _), C(c1, _, sex, _, _, _), C(c2, _, \
       _, _, _, _).";
      (* derived comparison labels *)
      "Q() :- P(_, _; x; y), C(x, _, _, agex, _, _), agex >= 70, C(y, _, _, agey, \
       _, _), agey < 70.";
      (* chain: x over y over z (general pattern) *)
      "Q() :- P(_, _; x; y), P(_, _; y; z), C(x, \"D\", _, _, _, _), C(y, \"R\", \
       _, _, _, _), C(z, _, \"M\", _, _, _).";
    ]
  in
  let n = 4000 in
  List.iteri
    (fun i qtext ->
      let q = Ppd.Parser.parse qtext in
      let exact =
        Ppd.Solve.boolean_prob ~solver:(Hardq.Solver.Exact `Brute) db q (Helpers.rng 2)
      in
      let mc = Ppd.World.estimate_prob ~n db q (Helpers.rng (100 + i)) in
      (* 4000 samples: |mc - p| < 4 * sqrt(p(1-p)/n) + slack *)
      let sigma = sqrt (max 1e-4 (exact *. (1. -. exact)) /. float_of_int n) in
      check_abs ~tol:((4. *. sigma) +. 0.01)
        (Printf.sprintf "query %d end-to-end" i)
        exact mc)
    queries

let unit_world_rejects_heads () =
  let db = T_ppd.figure1_db () in
  let w = Ppd.World.sample db (Helpers.rng 3) in
  let q = Ppd.Parser.parse "Q(e) :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _)." in
  Alcotest.check_raises "head vars rejected"
    (Invalid_argument "World.holds: query has head variables") (fun () ->
      ignore (Ppd.World.holds db w q))

let suites =
  [
    ( "ppd.world",
      [
        tc "deterministic worlds" `Quick unit_world_deterministic;
        tc "engine = possible-world Monte Carlo (6 query shapes)" `Slow
          unit_engine_matches_worlds;
        tc "head variables rejected" `Quick unit_world_rejects_heads;
      ] );
  ]

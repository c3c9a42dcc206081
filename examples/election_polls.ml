(* The paper's running example (Figure 1): a polling database for an
   election. Demonstrates hard (non-itemwise) conjunctive queries,
   Count-Session and Most-Probable-Session with the top-k optimization.

   Run with:  dune exec examples/election_polls.exe *)

let () =
  let db = Datasets.Polls.generate ~n_candidates:10 ~n_voters:60 ~seed:7 () in
  Format.printf "Polls database: %d candidates, %d poll sessions@.@."
    (Ppd.Database.m db)
    (Array.length (Ppd.Database.sessions (Ppd.Database.find_p_relation db "P")));

  (* Q2 of the paper: a Democrat preferred to a Republican with the same
     education — non-itemwise because of the shared variable e. *)
  let q2 =
    Ppd.Parser.parse
      "Q2() :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _), C(c2, \"R\", _, _, e, _)."
  in
  Format.printf "Q2 (shared education, V+ = {%s}):@."
    (String.concat ", " (Ppd.Compile.v_plus db q2));
  let rng = Util.Rng.make 1 in
  let p = Ppd.Solve.boolean_prob ~solver:(Hardq.Solver.Exact `Auto) db q2 rng in
  Format.printf "  Pr(Q2 | D)          = %.6f@." p;
  let c = Ppd.Solve.count_sessions ~solver:(Hardq.Solver.Exact `Auto) db q2 rng in
  Format.printf "  E[count(Q2)]        = %.2f sessions@.@." c;

  (* The Figure 4 query: male preferred to female of the same party. *)
  let q4 = Ppd.Parser.parse Datasets.Polls.query_two_label in
  Format.printf "Fig-4 query (same-party male over female):@.";
  let exact = Ppd.Solve.count_sessions ~solver:(Hardq.Solver.Exact `Two_label) db q4 rng in
  Format.printf "  exact count          = %.2f@." exact;
  let approx =
    Ppd.Solve.count_sessions ~solver:(Hardq.Solver.Approx (Hardq.Solver.Mis_adaptive { n_per = 300; delta_d = 5; d_max = 15; tol = 0.05 })) db q4 rng
  in
  Format.printf "  MIS-AMP-adaptive     = %.2f@.@." approx;

  (* Answer-tuple query: which education levels witness Q2? *)
  let qe =
    Ppd.Parser.parse
      "Q(e) :- P(_, _; c1; c2), C(c1, \"D\", _, _, e, _), C(c2, \"R\", _, _, e, _)."
  in
  Format.printf "Answers for Q(e):@.";
  List.iter
    (fun (a : Ppd.Answers.answer) ->
      Format.printf "  e = %-5s confidence %.4f@."
        (Ppd.Value.to_string (List.hd a.Ppd.Answers.values))
        a.Ppd.Answers.confidence)
    (Ppd.Answers.top ~k:3
       (List.map (fun q -> Ppd.Solve.boolean_prob db q rng))
       db qe);

  (* Aggregation (paper §7): average age of voters preferring some Democrat
     to some Republican. *)
  let qa =
    Ppd.Parser.parse
      "Q() :- P(w, _; c1; c2), V(w, _, _, _), C(c1, \"D\", _, _, _, _), C(c2, \
       \"R\", _, _, _, _)."
  in
  let agg =
    Ppd.Aggregate.over_sessions
      ~value_of:(Ppd.Aggregate.joined_value db ~relation:"V" ~key_index:0 ~attr:"age")
      Ppd.Aggregate.Avg db qa rng
  in
  Format.printf
    "@.Average age of voters preferring a Democrat to a Republican: %.1f (over \
     %.1f expected sessions)@.@."
    agg.Ppd.Aggregate.value agg.Ppd.Aggregate.expected_count;

  (* Most-Probable-Session with the upper-bound optimization. *)
  Format.printf "Most-Probable-Session (top 3, 1-edge bounds):@.";
  let report = Ppd.Solve.top_k ~strategy:(`Edges 1) ~k:3 db q4 rng in
  List.iter
    (fun ((s : Ppd.Database.session), p) ->
      Format.printf "  %-12s %-6s Pr = %.4f@."
        (Ppd.Value.to_string s.Ppd.Database.key.(0))
        (Ppd.Value.to_string s.Ppd.Database.key.(1))
        p)
    report.Ppd.Solve.results;
  Format.printf "  exact evaluations: %d of %d sessions@." report.Ppd.Solve.n_exact
    (Array.length (Ppd.Database.sessions (Ppd.Database.find_p_relation db "P")))

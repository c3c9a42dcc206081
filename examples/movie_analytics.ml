(* Movie preference analytics on the MovieLens surrogate: answer the
   paper's §6.3 hard query about release years and genres with the
   importance-sampling solvers.

   Run with:  dune exec examples/movie_analytics.exe *)

let () =
  let rng = Util.Rng.make 11 in
  (* The paper's §6.3 movie query on the surrogate catalog. *)
  let db = Datasets.Movielens.generate ~n_movies:60 ~n_components:6 ~seed:3 () in
  let q = Ppd.Parser.parse Datasets.Movielens.query_fig14 in
  Format.printf "query: %a@." Ppd.Query.pp q;
  Format.printf "grounded variables (V+): {%s}@.@."
    (String.concat ", " (Ppd.Compile.v_plus db q));
  let compiled = Ppd.Compile.compile db q in
  (match compiled.Ppd.Compile.requests with
  | { Ppd.Compile.union = Some u; _ } :: _ ->
      Format.printf "pattern union per session: %d patterns (kind: %s)@.@."
        (Prefs.Pattern_union.size u)
        (match Prefs.Pattern_union.kind u with
        | Prefs.Pattern_union.Two_label -> "two-label"
        | Prefs.Pattern_union.Bipartite -> "bipartite"
        | Prefs.Pattern_union.General -> "general")
  | _ -> ());

  (* Evaluate per session with MIS-AMP-adaptive (the exact solvers are
     hopeless at m = 60 for this union). *)
  let probs =
    Ppd.Solve.per_session
      ~solver:
        (Hardq.Solver.Approx
           (Hardq.Solver.Mis_adaptive
              { n_per = 500; delta_d = 5; d_max = 20; tol = 0.05 }))
      db q rng
  in
  List.iter
    (fun ((s : Ppd.Database.session), p) ->
      Format.printf "  %-14s Pr ~= %.4f@."
        (Ppd.Value.to_string s.Ppd.Database.key.(0))
        p)
    probs;
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0. probs in
  Format.printf "@.expected satisfying sessions: %.2f of %d@." total
    (List.length probs)

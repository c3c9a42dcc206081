(* Cross-cutting property tests: randomized end-to-end fuzzing of the
   query engine against the possible-world oracle, and properties of the
   newer components (arbitrary-Π RIM models, upper bounds). *)

let v = Ppd.Value.str
let vi = Ppd.Value.int

(* A random tiny RIM-PPD: 4 items with two attributes, 3 sessions keyed by
   one attribute, plus a demographics relation. *)
let random_db r =
  let colors = [ "red"; "blue" ] and sizes = [ 1; 2 ] in
  let items =
    Ppd.Relation.make ~name:"I" ~attrs:[ "id"; "color"; "size" ]
      (List.init 4 (fun i ->
           let color = Util.Rng.pick_list r colors in
           let size = Util.Rng.pick_list r sizes in
           [ v (Printf.sprintf "i%d" i); v color; vi size ]))
  in
  let people =
    Ppd.Relation.make ~name:"D" ~attrs:[ "who"; "group" ]
      (List.init 3 (fun k ->
           [ v (Printf.sprintf "s%d" k); v (Util.Rng.pick_list r colors) ]))
  in
  let sessions =
    List.init 3 (fun k ->
        {
          Ppd.Database.key = [| v (Printf.sprintf "s%d" k) |];
          model =
            Rim.Mallows.make
              ~center:(Prefs.Ranking.of_array (Util.Rng.permutation r 4))
              ~phi:(0.2 +. Util.Rng.float r 0.7);
        })
  in
  Ppd.Database.make ~items ~relations:[ people ]
    ~preferences:[ Ppd.Database.p_relation ~name:"P" ~key_attrs:[ "who" ] sessions ]
    ()

(* A random supported query over that schema. *)
let random_query r =
  let pick l = Util.Rng.pick_list r l in
  match Util.Rng.int r 5 with
  | 0 ->
      (* itemwise two-label *)
      Printf.sprintf "Q() :- P(_; x; y), I(x, \"%s\", _), I(y, \"%s\", _)."
        (pick [ "red"; "blue" ]) (pick [ "red"; "blue" ])
  | 1 ->
      (* non-itemwise: shared color *)
      "Q() :- P(_; x; y), I(x, c, 1), I(y, c, 2)."
  | 2 ->
      (* star with three endpoints *)
      "Q() :- P(_; x; y), P(_; x; z), I(x, \"red\", _), I(y, \"blue\", _), I(z, _, 2)."
  | 3 ->
      (* session join *)
      "Q() :- P(w; x; y), D(w, g), I(x, g, _), I(y, _, _)."
  | _ ->
      (* chain with a comparison *)
      "Q() :- P(_; x; y), P(_; y; z), I(x, _, sx), sx >= 2, I(z, _, sz), sz < 2."

let fuzz_engine_vs_worlds =
  Helpers.qtest ~count:15 "engine = possible-world Monte Carlo on random dbs/queries"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let db = random_db r in
      let q = Ppd.Parser.parse (random_query r) in
      let exact =
        Ppd.Solve.boolean_prob ~solver:(Hardq.Solver.Exact `Brute) db q
          (Helpers.rng 1)
      in
      let n = 3000 in
      let mc = Ppd.World.estimate_prob ~n db q (Helpers.rng (seed + 1)) in
      let sigma = sqrt (max 1e-4 (exact *. (1. -. exact)) /. float_of_int n) in
      let ok = abs_float (mc -. exact) <= (5. *. sigma) +. 0.01 in
      if not ok then
        QCheck.Test.fail_reportf "engine %.4f vs MC %.4f for %s" exact mc
          (Format.asprintf "%a" Ppd.Query.pp q);
      true)

let fuzz_solver_agreement =
  Helpers.qtest ~count:15 "auto solver = brute solver on random dbs/queries"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let db = random_db r in
      let q = Ppd.Parser.parse (random_query r) in
      let a =
        Ppd.Solve.boolean_prob ~solver:(Hardq.Solver.Exact `Auto) db q (Helpers.rng 1)
      in
      let b =
        Ppd.Solve.boolean_prob ~solver:(Hardq.Solver.Exact `Brute) db q (Helpers.rng 1)
      in
      abs_float (a -. b) < 1e-9)

let prop_rim_solvers =
  Helpers.qtest ~count:50 "exact solvers agree with brute force on random-Pi RIM models"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 5 in
      let model = Helpers.random_rim r m in
      let lab = Helpers.random_labeling r ~m ~n_labels:3 in
      let agrees solver gu = abs_float (solver model lab gu -. Hardq.Brute.prob model lab gu) < 1e-9 in
      agrees Hardq.Two_label.prob
        (Helpers.random_union
           (fun r -> Helpers.random_two_label_pattern r ~n_labels:3)
           r ~z:2)
      && agrees Hardq.Bipartite.prob
           (Helpers.random_union
              (Helpers.random_bipartite_pattern ~n_labels:3 ~n_left:1 ~n_right:2)
              r ~z:2))

let prop_upper_bound_monotone_in_k =
  Helpers.qtest ~count:60 "k-edge upper bounds tighten as k grows"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 6 in
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
      let lab = Helpers.random_labeling r ~m ~n_labels:3 in
      let gu =
        Helpers.random_union
          (Helpers.random_general_pattern ~n_labels:3 ~n_nodes:3)
          r ~z:2
      in
      let exact = Hardq.Brute.prob model lab gu in
      let ubs =
        List.map (fun k -> Hardq.Upper_bound.upper_bound ~k model lab gu) [ 1; 2; 3 ]
      in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> b <= a +. 1e-9 && decreasing rest
        | _ -> true
      in
      decreasing ubs && List.for_all (fun ub -> ub +. 1e-9 >= exact) ubs)

let prop_aggregate_bounds =
  Helpers.qtest ~count:20 "Avg lies within the attribute range; Count within #sessions"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let db = random_db r in
      let q = Ppd.Parser.parse "Q() :- P(w; x; y), I(x, \"red\", _), I(y, \"blue\", _)." in
      let value_of (_ : Ppd.Database.session) = Some 5. in
      let res =
        Ppd.Aggregate.over_sessions ~value_of Ppd.Aggregate.Avg db q (Helpers.rng 1)
      in
      let cnt =
        Ppd.Aggregate.over_sessions ~value_of Ppd.Aggregate.Count db q (Helpers.rng 1)
      in
      (Float.is_nan res.Ppd.Aggregate.value || abs_float (res.Ppd.Aggregate.value -. 5.) < 1e-9)
      && cnt.Ppd.Aggregate.value >= -1e-9
      && cnt.Ppd.Aggregate.value <= float_of_int cnt.Ppd.Aggregate.n_sessions +. 1e-9)

let suites =
  [
    ( "props.end-to-end",
      [ fuzz_engine_vs_worlds; fuzz_solver_agreement ] );
    ( "props.components",
      [
        prop_rim_solvers;
        prop_upper_bound_monotone_in_k;
        prop_aggregate_bounds;
      ] );
  ]

(* The item-side exact solvers (Po_solver, Subranking_solver): correctness
   against brute force, and cross-validation against the label-side exact
   solvers at domain sizes beyond brute-force enumeration. *)

let tc = Alcotest.test_case

let prop_po_solver_vs_brute =
  Helpers.qtest ~count:120 "Po_solver = brute force on random partial orders"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 4 + Util.Rng.int r 3 in
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
      let k = 2 + Util.Rng.int r 3 in
      let items = Array.to_list (Array.sub (Util.Rng.permutation r m) 0 k) in
      let edges = ref [] in
      List.iteri
        (fun i a ->
          List.iteri
            (fun j b -> if i < j && Util.Rng.bool r then edges := (a, b) :: !edges)
            items)
        items;
      let po = Prefs.Partial_order.make_with_items ~items ~edges:!edges in
      let expected = Hardq.Brute.prob_partial_order model po in
      let actual = Hardq.Po_solver.prob model po in
      abs_float (expected -. actual) < 1e-9)

let unit_po_solver_basics () =
  let model = Rim.Mallows.to_rim (Helpers.random_mallows (Helpers.rng 1) 6) in
  Helpers.check_close "empty order" 1.
    (Hardq.Po_solver.prob model Prefs.Partial_order.empty);
  (* A full chain over all items pins the ranking exactly. *)
  let tau = Prefs.Ranking.of_array (Util.Rng.permutation (Helpers.rng 2) 6) in
  Helpers.check_close ~eps:1e-12 "full chain = point probability"
    (Rim.Model.prob model tau)
    (Hardq.Po_solver.prob_subranking model tau);
  (* A pair event under the uniform distribution is exactly 1/2. *)
  let unif = Rim.Model.uniform (Prefs.Ranking.identity 6) in
  Helpers.check_close ~eps:1e-12 "pair under uniform" 0.5
    (Hardq.Po_solver.prob_subranking unif (Prefs.Ranking.of_list [ 4; 1 ]))

let prop_subranking_solver_vs_brute =
  Helpers.qtest ~count:80 "Subranking_solver = brute force on random unions"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 6 in
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
      let lab = Helpers.random_labeling r ~m ~n_labels:3 in
      let gu =
        Helpers.random_union
          (Helpers.random_general_pattern ~n_labels:3 ~n_nodes:3)
          r
          ~z:(1 + (seed mod 2))
      in
      match Hardq.Subranking_solver.prob model lab gu with
      | actual ->
          let expected = Hardq.Brute.prob model lab gu in
          abs_float (expected -. actual) < 1e-9
      | exception Hardq.Subranking_solver.Too_many _ -> true)

let unit_cross_validation_beyond_brute () =
  (* m = 12 is far beyond Ranking.all's reach: validate the two independent
     exact paths (label-side two-label DP vs item-side inclusion-exclusion
     over sub-rankings) against each other. *)
  let r = Helpers.rng 5 in
  let m = 12 in
  for _ = 1 to 10 do
    let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
    (* Sparse labels so the sub-ranking count stays within the IE guard. *)
    let lab = Helpers.random_labeling ~p:0.2 r ~m ~n_labels:4 in
    let gu =
      Helpers.random_union (Helpers.random_two_label_pattern ~n_labels:4) r ~z:2
    in
    match Hardq.Subranking_solver.prob model lab gu with
    | item_side ->
        let label_side = Hardq.Two_label.prob model lab gu in
        Helpers.check_close ~eps:1e-9 "two exact solver families agree at m=12"
          label_side item_side
    | exception Hardq.Subranking_solver.Too_many _ -> ()
  done

let unit_validates_sampler_beyond_brute () =
  (* Use the item-side exact solver as ground truth for MIS-AMP at m = 12
     on a general (chain) pattern no other exact solver handles cheaply. *)
  let r = Helpers.rng 7 in
  let m = 12 in
  let mal = Helpers.random_mallows ~phi:0.4 r m in
  let model = Rim.Mallows.to_rim mal in
  let lab =
    Prefs.Labeling.make
      (Array.init m (fun i -> if i < 2 then [ 0 ] else if i < 4 then [ 1 ] else if i < 6 then [ 2 ] else []))
  in
  let gu =
    Prefs.Pattern_union.singleton (Prefs.Pattern.chain [ [ 0 ]; [ 1 ]; [ 2 ] ])
  in
  let exact = Hardq.Subranking_solver.prob model lab gu in
  Alcotest.(check bool) "event is nontrivial" true (exact > 0.001 && exact < 0.999);
  let est = Hardq.Mis_amp.estimate_union ~n_per:3000 mal lab gu r in
  Helpers.check_rel ~tol:0.15 "MIS-AMP at m=12 vs item-side exact" exact
    est.Hardq.Estimate.value

let unit_too_many_guard () =
  let model = Rim.Mallows.to_rim (Helpers.random_mallows (Helpers.rng 9) 8) in
  let subs =
    List.init 20 (fun i ->
        Prefs.Ranking.of_list [ i mod 8; (i + 1 + (i mod 7)) mod 8 ])
  in
  let distinct =
    List.filter (fun s -> Prefs.Ranking.item_at s 0 <> Prefs.Ranking.item_at s 1) subs
  in
  match Hardq.Subranking_solver.prob_subrankings model distinct with
  | _ -> Alcotest.fail "expected Too_many"
  | exception Hardq.Subranking_solver.Too_many _ -> ()

let unit_disjoint_additivity () =
  (* Sub-rankings <a,b> and <b,a> are disjoint and exhaustive. *)
  let model = Rim.Mallows.to_rim (Helpers.random_mallows (Helpers.rng 11) 7) in
  let ab = Prefs.Ranking.of_list [ 2; 5 ] and ba = Prefs.Ranking.of_list [ 5; 2 ] in
  let p_ab = Hardq.Po_solver.prob_subranking model ab in
  let p_ba = Hardq.Po_solver.prob_subranking model ba in
  Helpers.check_close ~eps:1e-12 "complementary pair" 1. (p_ab +. p_ba);
  Helpers.check_close ~eps:1e-12 "union of both is certain" 1.
    (Hardq.Subranking_solver.prob_subrankings model [ ab; ba ])

(* ------------------------------------------------------------------ *)
(* Routing IE terms to RIM matching (General.route)                    *)
(* ------------------------------------------------------------------ *)

let rel_close tol a b =
  a = b || abs_float (a -. b) <= tol *. Float.max (abs_float a) (abs_float b)

(* Inclusion-exclusion with the signature DP on every term, summed in
   General's own term order: the reference the routing must match. *)
let ie_pattern_solver model lab gu =
  List.fold_left
    (fun acc (c, size) ->
      let sign = if size land 1 = 1 then 1. else -1. in
      acc +. (sign *. Hardq.Pattern_solver.prob model lab c))
    0. (Hardq.General.conjunctions gu)

(* Items 0..m-1 form σ; item x carries its own label x, so a node [x] is
   pinned to one item. Item m lies outside σ and carries label m (a node
   no item of σ carries), and shared label m+1 sits on a random subset of
   σ's items (a node with several or no carriers: the signature DP's). *)
let itemwise_labeling r m =
  Prefs.Labeling.make
    (Array.init (m + 1) (fun x ->
         if x = m then [ m ]
         else if Util.Rng.float r 1. < 0.3 then [ x; m + 1 ]
         else [ x ]))

let random_itemwise_pattern r m =
  let n_nodes = 2 + Util.Rng.int r 3 in
  let node () =
    match Util.Rng.int r 10 with
    | 0 -> [ m ]
    | 1 -> [ m + 1 ]
    | _ -> [ Util.Rng.int r m ]
  in
  let nodes = List.init n_nodes (fun _ -> node ()) in
  let edges = ref [] in
  for a = 0 to n_nodes - 2 do
    for b = a + 1 to n_nodes - 1 do
      if Util.Rng.float r 1. < 0.5 then edges := (a, b) :: !edges
    done
  done;
  if !edges = [] then edges := [ (0, n_nodes - 1) ];
  Prefs.Pattern.make ~nodes ~edges:!edges

let prop_routed_general_itemwise =
  Helpers.qtest ~count:150
    "routed General = Pattern_solver IE = brute on itemwise unions"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 4 + Util.Rng.int r 5 in
      let model = Helpers.random_rim r m in
      let lab = itemwise_labeling r m in
      let gu =
        Helpers.random_union
          (fun r -> random_itemwise_pattern r m)
          r
          ~z:(1 + Util.Rng.int r 3)
      in
      let routed = Hardq.General.prob model lab gu in
      let reference = ie_pattern_solver model lab gu in
      let brute = Hardq.Brute.prob model lab gu in
      if not (rel_close 1e-12 routed reference) then
        QCheck.Test.fail_reportf "routed=%.17g pattern-solver IE=%.17g on %s"
          routed reference
          (Format.asprintf "%a" Prefs.Pattern_union.pp gu);
      if abs_float (routed -. brute) > 1e-9 then
        QCheck.Test.fail_reportf "routed=%.17g brute=%.17g on %s" routed brute
          (Format.asprintf "%a" Prefs.Pattern_union.pp gu);
      true)

(* One fixed input per routing rule, each checked against the signature
   DP and brute force. σ ranks items 0..5; item x carries label x; item 6
   is outside σ and alone carries label 6; label 7 sits on items 1 and 2. *)
let unit_route_rules () =
  let m = 6 in
  let model = Rim.Mallows.to_rim (Helpers.random_mallows (Helpers.rng 13) m) in
  let lab =
    Prefs.Labeling.make
      [| [ 0 ]; [ 1; 7 ]; [ 2; 7 ]; [ 3 ]; [ 4 ]; [ 5 ]; [ 6 ] |]
  in
  let route_name c =
    match Hardq.General.route model lab c with
    | Hardq.General.Zero -> "zero"
    | Hardq.General.Items _ -> "items"
    | Hardq.General.Labels -> "labels"
  in
  let case what c ~route ~expected =
    Alcotest.(check string) (what ^ ": route") route (route_name c);
    let gu = Prefs.Pattern_union.singleton c in
    let p = Hardq.General.prob model lab gu in
    Helpers.check_close ~eps:1e-12 (what ^ ": vs signature DP")
      (Hardq.Pattern_solver.prob model lab c)
      p;
    Helpers.check_close (what ^ ": vs brute") (Hardq.Brute.prob model lab gu) p;
    Option.iter (fun e -> Helpers.check_close ~eps:1e-12 what e p) expected
  in
  (* Po_solver itself rejects an item outside σ; the route never asks it. *)
  (match
     Hardq.Po_solver.prob model (Prefs.Partial_order.make ~edges:[ (0, 6) ])
   with
  | _ -> Alcotest.fail "Po_solver accepted an item outside sigma"
  | exception Invalid_argument _ -> ());
  case "sigma lacks the only carrier" (Prefs.Pattern.chain [ [ 0 ]; [ 6 ] ])
    ~route:"zero" ~expected:(Some 0.);
  case "an isolated node only an item outside sigma carries"
    (Prefs.Pattern.make ~nodes:[ [ 0 ]; [ 4 ]; [ 6 ] ] ~edges:[ (0, 1) ])
    ~route:"zero" ~expected:(Some 0.);
  case "a node with two carriers"
    (Prefs.Pattern.chain [ [ 0 ]; [ 7 ]; [ 3 ] ])
    ~route:"labels" ~expected:None;
  case "two nodes pinned to one item, joined"
    (Prefs.Pattern.make ~nodes:[ [ 3 ]; [ 3 ] ] ~edges:[ (0, 1) ])
    ~route:"zero" ~expected:(Some 0.);
  case "an isolated pinned node"
    (Prefs.Pattern.make ~nodes:[ [ 0 ]; [ 4 ]; [ 5 ] ] ~edges:[ (0, 1) ])
    ~route:"items"
    ~expected:
      (Some (Hardq.Po_solver.prob model (Prefs.Partial_order.make ~edges:[ (0, 4) ])));
  (* A cyclic merged conjunction: both orders of one pair. The merged
     term is 0, so the union is certain. *)
  let fwd = Prefs.Pattern.chain [ [ 1 ]; [ 4 ] ]
  and bwd = Prefs.Pattern.chain [ [ 4 ]; [ 1 ] ] in
  case "a cyclic merged conjunction"
    (Prefs.Pattern.conjunction [ fwd; bwd ])
    ~route:"zero" ~expected:(Some 0.);
  Helpers.check_close ~eps:1e-12 "both orders of a pair are certain" 1.
    (Hardq.General.prob model lab (Prefs.Pattern_union.make [ fwd; bwd ]))

(* Each Po_solver call counts its layers like the flat label-side DPs. *)
let unit_po_counters () =
  let model = Rim.Mallows.to_rim (Helpers.random_mallows (Helpers.rng 17) 9) in
  let po = Prefs.Partial_order.of_chain [ 3; 7; 1 ] in
  let before = Obs.snapshot () in
  ignore (Hardq.Po_solver.prob model po);
  let d = Obs.diff before (Obs.snapshot ()) in
  Alcotest.(check int) "solver.po.calls" 1 (Obs.count d "solver.po.calls");
  Alcotest.(check int) "dp.flat.calls" 1 (Obs.count d "dp.flat.calls");
  let states = Obs.count d "solver.po.dp_states" in
  Alcotest.(check bool) "states counted" true (states > 0);
  Alcotest.(check int) "dp.flat.states" states (Obs.count d "dp.flat.states")

let suites =
  [
    ( "solvers.item-side",
      [
        tc "po solver basics" `Quick unit_po_solver_basics;
        tc "IE term routing rules" `Quick unit_route_rules;
        tc "po solver counters" `Quick unit_po_counters;
        prop_routed_general_itemwise;
        prop_po_solver_vs_brute;
        prop_subranking_solver_vs_brute;
        tc "cross-validation at m=12" `Quick unit_cross_validation_beyond_brute;
        tc "validates MIS-AMP at m=12" `Slow unit_validates_sampler_beyond_brute;
        tc "inclusion-exclusion guard" `Quick unit_too_many_guard;
        tc "disjoint additivity" `Quick unit_disjoint_additivity;
      ] );
  ]

(* Kernel equivalence: the flat arena kernel (Hardq.Kernel.Flat) must be
   byte-identical to the boxed reference (Boxed) on every DP solver —
   not within an epsilon, exactly. Both kernels number layer states by
   first insertion and expand with shared arithmetic, and Dp_par replays
   parallel chunks in chunk order, so their contribution streams are the
   same float sequence whatever the pool width (DESIGN.md §13). The
   suite pins that contract with fixed edge cases, QCheck differential
   properties across random instances, and Dp_table unit tests.

   The pool width under test comes from [HARDQ_TEST_DOMAINS] (see
   helpers.ml); `make ci` runs this suite at 1, 2 and the recommended
   domain count. *)

let tc = Alcotest.test_case
let nd = Helpers.test_domains
let named what = Printf.sprintf "%s %s" what Helpers.domains_label

let with_pool jobs f =
  let pool = Engine.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) (fun () -> f pool)

let check_bits what expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected exactly %.17g, got %.17g" what expected actual

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Solve [solve ~kernel ~par] under both kernels, sequentially and under
   a pool of the matrix width, and demand one bit-identical answer. *)
let check_kernels what solve =
  let p_boxed = solve ~kernel:Hardq.Kernel.Boxed ~par:None in
  let p_flat = solve ~kernel:Hardq.Kernel.Flat ~par:None in
  check_bits (what ^ ": flat vs boxed (sequential)") p_boxed p_flat;
  with_pool nd (fun pool ->
      let par = Some (Engine.Pool.sharer pool) in
      check_bits
        (named (what ^ ": boxed par vs sequential"))
        p_boxed
        (solve ~kernel:Hardq.Kernel.Boxed ~par);
      check_bits
        (named (what ^ ": flat par vs sequential"))
        p_flat
        (solve ~kernel:Hardq.Kernel.Flat ~par));
  p_flat

let exact ?par ?kernel s model lab gu =
  match par with
  | None -> Hardq.Solver.exact_prob ?kernel s model lab gu
  | Some par -> Hardq.Solver.exact_prob ~par ?kernel s model lab gu

(* ------------------------------------------------------------------ *)
(* Kernel selector                                                      *)
(* ------------------------------------------------------------------ *)

let unit_kernel_of_string () =
  List.iter
    (fun k ->
      match Hardq.Kernel.of_string (Hardq.Kernel.to_string k) with
      | Ok k' -> Alcotest.(check bool) "round-trip" true (k = k')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    [ Hardq.Kernel.Boxed; Hardq.Kernel.Flat ];
  (match Hardq.Kernel.of_string "  FLAT " with
  | Ok Hardq.Kernel.Flat -> ()
  | _ -> Alcotest.fail "of_string not case/space insensitive");
  match Hardq.Kernel.of_string "fast" with
  | Ok _ -> Alcotest.fail "of_string accepted garbage"
  | Error msg ->
      List.iter
        (fun name ->
          if not (contains msg name) then
            Alcotest.failf "error %S does not list %S" msg name)
        Hardq.Kernel.valid_names

(* ------------------------------------------------------------------ *)
(* Dp_table unit tests                                                  *)
(* ------------------------------------------------------------------ *)

let unit_boxed_insertion_order () =
  let t = Hardq.Dp_table.Boxed.create ~name:"t" ~max_states:100 () in
  Hardq.Dp_table.Boxed.add t [| 3 |] 0.25;
  Hardq.Dp_table.Boxed.add t [| 1 |] 0.5;
  Hardq.Dp_table.Boxed.add t [| 3 |] 0.125;
  Alcotest.(check int) "distinct states" 2 (Hardq.Dp_table.Boxed.length t);
  Alcotest.(check (array int)) "slot 0 is first-inserted" [| 3 |]
    (Hardq.Dp_table.Boxed.key t 0);
  Alcotest.(check (float 0.)) "duplicate merged" 0.375
    (Hardq.Dp_table.Boxed.prob t 0);
  Alcotest.(check (float 0.)) "sum in insertion order" 0.875
    (Hardq.Dp_table.Boxed.sum t)

module Fixed = Hardq.Dp_table.Fixed

let add t words p = Fixed.add t words 0 [| p |] 0

let prob t s = (Fixed.probs t).(s)
let key t s = Array.sub (Fixed.keys t) (s * Fixed.width t) (Fixed.width t)

(* States are numbered by first insertion, a repeat merges onto its
   slot, and a key is read at any offset of the caller's buffer. *)
let unit_flat_basics () =
  let t = Fixed.create ~width:2 ~name:"t" ~max_states:100 () in
  Fixed.add t [| 9; 3; 7 |] 1 [| 0.; 0.25 |] 1;
  add t [| 5; 5 |] 0.5;
  add t [| 3; 7 |] 0.125;
  Alcotest.(check int) "distinct states" 2 (Fixed.length t);
  Alcotest.(check (float 0.)) "duplicate merged" 0.375 (prob t 0);
  Alcotest.(check (array int)) "slot 0 words" [| 3; 7 |] (key t 0);
  Alcotest.(check (array int)) "slot 1 words" [| 5; 5 |] (key t 1);
  let acc = Hardq.Dp_table.Mass.create () in
  for s = 0 to Fixed.length t - 1 do
    Hardq.Dp_table.Mass.add acc (Fixed.probs t) s
  done;
  Alcotest.(check (float 0.)) "sum" 0.875 (Hardq.Dp_table.Mass.total acc);
  match Fixed.add t [| 1 |] 0 [| 1. |] 0 with
  | () -> Alcotest.fail "a key shorter than the width was accepted"
  | exception Invalid_argument _ -> ()

(* Growth + clear: push enough distinct states through a fresh table to
   force both key growth and index rehashes, then verify every key
   survived verbatim and a repeat still merges; [clear] must keep the
   capacity. Width 1 takes [add]'s one-word probe loop, width 3 the
   general one. *)
let unit_flat_growth_and_clear () =
  List.iter
    (fun width ->
      let words i = Array.sub [| i; i * 7; i land 3 |] 0 width in
      let t = Fixed.create ~width ~name:"t" ~max_states:10_000 () in
      let n = 300 in
      for i = 0 to n - 1 do
        add t (words i) (float_of_int i)
      done;
      add t (words 17) 0.5;
      Alcotest.(check int) "all states distinct" n (Fixed.length t);
      for i = 0 to n - 1 do
        if key t i <> words i then
          Alcotest.failf "width %d: state %d corrupted by growth" width i;
        let p = float_of_int i +. if i = 17 then 0.5 else 0. in
        Alcotest.(check (float 0.)) "prob" p (prob t i)
      done;
      Alcotest.(check int) "used words" (width * n) (Fixed.used_words t);
      let cap = Fixed.capacity_words t in
      Fixed.clear t;
      Alcotest.(check int) "clear empties" 0 (Fixed.length t);
      Alcotest.(check int) "clear keeps capacity" cap (Fixed.capacity_words t);
      (* Reuse after clear: the retained index must not resurrect old
         states. *)
      add t (words 1) 0.5;
      Alcotest.(check int) "fresh after clear" 1 (Fixed.length t);
      Alcotest.(check (float 0.)) "fresh prob" 0.5 (prob t 0))
    [ 1; 3 ]

let unit_flat_state_explosion () =
  let t = Fixed.create ~width:1 ~name:"boom" ~max_states:3 () in
  for i = 0 to 2 do
    add t [| i |] 1.
  done;
  match add t [| 99 |] 1. with
  | () -> Alcotest.fail "expected state explosion"
  | exception Hardq.Dp_table.State_explosion { table = msg; cap } ->
      Alcotest.(check bool) "failure names the table" true (contains msg "boom");
      Alcotest.(check int) "failure carries the cap" 3 cap

(* A seed state is all zeros: at width 0 every key is the one empty
   state, and at a padded width the zero seed stays distinct from a
   state that differs from it in one word. *)
let unit_flat_seed_state () =
  let t = Fixed.create ~width:0 ~name:"t" ~max_states:10 () in
  add t [||] 0.25;
  add t [| 4 |] 0.25;
  Alcotest.(check int) "one empty state" 1 (Fixed.length t);
  Alcotest.(check (float 0.)) "empty merged" 0.5 (prob t 0);
  let t = Fixed.create ~width:3 ~name:"t" ~max_states:10 () in
  add t (Array.make 3 0) 0.25;
  add t [| 1; 0; 0 |] 0.5;
  add t (Array.make 3 0) 0.125;
  Alcotest.(check int) "seed and one-word state" 2 (Fixed.length t);
  Alcotest.(check (array int)) "seed first" [| 0; 0; 0 |] (key t 0);
  Alcotest.(check (float 0.)) "seed merged" 0.375 (prob t 0)

(* ------------------------------------------------------------------ *)
(* Fixed edge cases                                                     *)
(* ------------------------------------------------------------------ *)

(* m = 1: every DP degenerates to a single forced insertion. *)
let unit_single_item_domain () =
  let model = Rim.Mallows.to_rim (Rim.Mallows.make ~center:(Prefs.Ranking.identity 1) ~phi:0.5) in
  let lab = Prefs.Labeling.make [| [ 0 ] |] in
  let gu =
    Prefs.Pattern_union.make [ Prefs.Pattern.two_label ~left:[ 0 ] ~right:[ 0 ] ]
  in
  List.iter
    (fun s ->
      let p =
        check_kernels "m=1" (fun ~kernel ~par -> exact ?par ~kernel s model lab gu)
      in
      check_bits "m=1 unsatisfiable" 0. p)
    [ `Two_label; `Bipartite; `Bipartite_basic; `General ]

(* A label no item carries: the general DP's static witness check bails
   before any layer, the bipartite solvers drop the pattern — both
   kernels must take the same short-circuits. *)
let unit_statically_infeasible () =
  let r = Helpers.rng 5 in
  let model = Rim.Mallows.to_rim (Helpers.random_mallows r 5) in
  let lab = Helpers.random_labeling r ~m:5 ~n_labels:2 in
  let ghost = Prefs.Pattern.two_label ~left:[ 7 ] ~right:[ 0 ] in
  let gu = Prefs.Pattern_union.make [ ghost ] in
  List.iter
    (fun s ->
      let p =
        check_kernels "ghost label"
          (fun ~kernel ~par -> exact ?par ~kernel s model lab gu)
      in
      check_bits "ghost label prob" 0. p)
    [ `Two_label; `Bipartite; `Bipartite_basic; `General ]

(* Certain satisfaction: when every item carries both labels the
   surviving-state layer of the two-label DP empties mid-query (states
   are dropped as satisfied), exercising empty/shrinking layers in both
   kernels. *)
let unit_emptying_layers () =
  let m = 4 in
  let model = Rim.Mallows.to_rim (Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.9) in
  let lab = Prefs.Labeling.make (Array.make m [ 0; 1 ]) in
  let gu =
    Prefs.Pattern_union.make [ Prefs.Pattern.two_label ~left:[ 0 ] ~right:[ 1 ] ]
  in
  List.iter
    (fun s ->
      let p =
        check_kernels "certain union"
          (fun ~kernel ~par -> exact ?par ~kernel s model lab gu)
      in
      check_bits "certain union prob" 1. p)
    [ `Two_label; `Bipartite; `Bipartite_basic; `General ];
  (* Certain too (two items carry label 1, and the lower one has some
     item above it), but the mass leaves over several layers: the
     two-label DP ends with no unsatisfied state and answers exactly 1,
     not the rounded sum of what left (1 - 2^-53 here). *)
  let m = 6 in
  let model = Rim.Mallows.to_rim (Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.3) in
  let lab =
    Prefs.Labeling.make
      (Array.init m (fun i -> if i = 1 || i = 4 then [ 0; 1 ] else [ 0 ]))
  in
  let p =
    check_kernels "certain union, mass leaving over layers"
      (fun ~kernel ~par -> exact ?par ~kernel `Two_label model lab gu)
  in
  check_bits "certain union, mass leaving over layers" 1. p

(* m = 30 two-label union: wide enough that the flat arena must grow
   well past its initial capacity mid-query and the layers cross the
   parallel cut-off. *)
let unit_arena_growth_mid_query () =
  let r = Helpers.rng 7 in
  let model = Rim.Mallows.to_rim (Helpers.random_mallows ~phi:0.8 r 30) in
  let lab = Helpers.random_labeling ~p:0.3 r ~m:30 ~n_labels:5 in
  let gu =
    Helpers.random_union (Helpers.random_two_label_pattern ~n_labels:5) r ~z:3
  in
  List.iter
    (fun s ->
      ignore
        (check_kernels "m=30 growth"
           (fun ~kernel ~par -> exact ?par ~kernel s model lab gu)))
    [ `Two_label; `Bipartite ]

(* ------------------------------------------------------------------ *)
(* QCheck differential properties                                       *)
(* ------------------------------------------------------------------ *)

let seed_gen = QCheck.small_nat

(* The flat two-label kernel packs a state's words into [b]-bit fields,
   [62 / b] per int. A union of eight two-label patterns over sixteen
   distinct labels tracks sixteen words; at m = 8 a word takes 4 bits
   and one int holds 15, so its states span two ints. Each pattern asks
   for one inversion of a concentrated Mallows model (its left label on
   an item the center ranks below its right label's item), so the union
   stays well away from probability 1. *)
let wide_two_label_union r =
  let m = 8 in
  let center = Util.Rng.permutation r m in
  let model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make
         ~center:(Prefs.Ranking.of_array center)
         ~phi:(0.1 +. Util.Rng.float r 0.4))
  in
  let labels = Array.make m [] in
  for i = 0 to 7 do
    let hi = Util.Rng.int r m in
    let lo = (hi + 1 + Util.Rng.int r (m - 1)) mod m in
    let above = min hi lo and below = max hi lo in
    labels.(center.(below)) <- (2 * i) :: labels.(center.(below));
    labels.(center.(above)) <- ((2 * i) + 1) :: labels.(center.(above))
  done;
  let gu =
    Prefs.Pattern_union.make
      (List.init 8 (fun i ->
           Prefs.Pattern.two_label ~left:[ 2 * i ] ~right:[ (2 * i) + 1 ]))
  in
  (model, Prefs.Labeling.make labels, gu)

let prop_two_label =
  Helpers.qtest ~count:40 (named "flat == boxed: two-label DP") seed_gen
    (fun seed ->
      let r = Helpers.rng (1000 + seed) in
      let m = 3 + Util.Rng.int r 8 in
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
      let lab = Helpers.random_labeling r ~m ~n_labels:4 in
      let gu =
        Helpers.random_union
          (Helpers.random_two_label_pattern ~n_labels:4)
          r
          ~z:(1 + Util.Rng.int r 3)
      in
      ignore
        (check_kernels "two_label"
           (fun ~kernel ~par -> exact ?par ~kernel `Two_label model lab gu));
      let model, lab, gu = wide_two_label_union r in
      let p =
        check_kernels "two_label (two-int states)"
          (fun ~kernel ~par -> exact ?par ~kernel `Two_label model lab gu)
      in
      Helpers.check_close "two-int states vs brute force"
        (Hardq.Brute.prob model lab gu) p;
      true)

(* The one-int boundary of the flat two-label kernel: a state of [w]
   words is one int while [w <= 62 / b] and two past it, where [b], the
   field width, grows at m = 8, 16 and 32. [boundary_union] tracks
   exactly [w] words at [m] items: edge e asks for its left label (on the
   item σ inserts [span] steps after its right label's item) to precede
   its right label. An odd [w] makes the last edge reuse the first right
   label. The edge whose right word takes the highest field has an item
   pair of its own, so no other word repeats what that field holds; the
   other edges share two item pairs, which keeps the state count small. *)
let boundary_union r ~m ~w ~span =
  let center = Util.Rng.permutation r m in
  let model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make
         ~center:(Prefs.Ranking.of_array center)
         ~phi:(0.2 +. Util.Rng.float r 0.4))
  in
  let labels = Array.make m [] in
  let place label pos =
    labels.(center.(pos)) <- label :: labels.(center.(pos))
  in
  let z = (w + 1) / 2 and odd = w mod 2 = 1 in
  let last = if odd then z - 2 else z - 1 in
  let edges =
    List.init z (fun e ->
        let lo = (if e = last then 2 else e mod 2) * (m / 3) in
        let reuse = odd && e = z - 1 in
        place (2 * e) (lo + span);
        if not reuse then place ((2 * e) + 1) lo;
        Prefs.Pattern.two_label ~left:[ 2 * e ]
          ~right:[ (if reuse then 1 else (2 * e) + 1) ])
  in
  (model, Prefs.Labeling.make labels, Prefs.Pattern_union.make edges)

let fields_per_int m =
  let rec bits b = if 1 lsl b > m then b else bits (b + 1) in
  62 / bits 1

let prop_one_int_boundary =
  Helpers.qtest ~count:8 (named "flat == boxed: one-int boundary") seed_gen
    (fun seed ->
      let r = Helpers.rng (4000 + seed) in
      List.iter
        (fun m ->
          let f = fields_per_int m in
          List.iter
            (fun w ->
              let model, lab, gu = boundary_union r ~m ~w ~span:1 in
              ignore
                (check_kernels
                   (Printf.sprintf "m=%d w=%d" m w)
                   (fun ~kernel ~par ->
                     exact ?par ~kernel `Two_label model lab gu)))
            [ f; f + 1 ])
        [ 7; 8; 15; 16; 31; 32 ];
      (* Wide spans keep many words live: layers pass Dp_par's parallel
         cut-off, so a pool of two or more domains runs the chunked
         path. *)
      let m = 32 in
      let model, lab, gu =
        boundary_union r ~m ~w:(fields_per_int m + 1) ~span:(m / 4)
      in
      let solve ~kernel ~par = exact ?par ~kernel `Two_label model lab gu in
      let before = Obs.snapshot () in
      let p = check_kernels "m=32 chunked layers" solve in
      (match
         Obs.find (Obs.diff before (Obs.snapshot ())) "dp.flat.layer_width"
       with
      | Some (Obs.Hist { buckets; _ })
        when List.exists
               (fun (lo, _) -> lo >= Hardq.Dp_par.default_min_par)
               buckets ->
          ()
      | _ -> Alcotest.fail "no layer reached the parallel cut-off");
      with_pool (max 2 nd) (fun pool ->
          check_bits "m=32 chunked layers, 2+ domains" p
            (solve ~kernel:Hardq.Kernel.Flat
               ~par:(Some (Engine.Pool.sharer pool))));
      true)

let check_small what p =
  if not (p > 0. && p < 1e-6) then
    Alcotest.failf "%s: %.17g is not in (0, 1e-6)" what p

(* A union of rare inversions: edge e's left label sits on one or two of
   the items a concentrated Mallows center ranks last, its right label on
   one or two it ranks first, so every edge needs an inversion across at
   least m - 3 places and the union stays below 1e-6. *)
let rare_inversion_union r =
  let m = 12 + Util.Rng.int r 9 in
  let center = Util.Rng.permutation r m in
  let model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make
         ~center:(Prefs.Ranking.of_array center)
         ~phi:(0.02 +. Util.Rng.float r 0.1))
  in
  let labels = Array.make m [] in
  let place label pos =
    let item = center.(pos) in
    if not (List.mem label labels.(item)) then
      labels.(item) <- label :: labels.(item)
  in
  let z = 1 + Util.Rng.int r 3 in
  for e = 0 to z - 1 do
    for _ = 0 to Util.Rng.int r 2 do
      place (2 * e) (m - 1 - Util.Rng.int r 2);
      place ((2 * e) + 1) (Util.Rng.int r 2)
    done
  done;
  let gu =
    Prefs.Pattern_union.make
      (List.init z (fun e ->
           Prefs.Pattern.two_label ~left:[ 2 * e ] ~right:[ (2 * e) + 1 ]))
  in
  (model, Prefs.Labeling.make labels, gu)

(* The two-label answer is a sum of the mass that leaves for
   "satisfied", so it keeps its relative accuracy at small p: it must
   match the bipartite DP (another positive sum) to 1e-12 relative. *)
let prop_two_label_small_p =
  Helpers.qtest ~count:30 (named "two-label vs bipartite DP at small p")
    seed_gen (fun seed ->
      let r = Helpers.rng (5000 + seed) in
      let model, lab, gu = rare_inversion_union r in
      let p =
        check_kernels "two_label (small p)"
          (fun ~kernel ~par -> exact ?par ~kernel `Two_label model lab gu)
      in
      check_small "two_label (small p)" p;
      Helpers.check_rel ~tol:1e-12 "two-label vs Bipartite.prob"
        (Hardq.Bipartite.prob model lab gu)
        p;
      true)

let prop_bipartite =
  Helpers.qtest ~count:30 (named "flat == boxed: bipartite DPs") seed_gen
    (fun seed ->
      let r = Helpers.rng (2000 + seed) in
      let m = 3 + Util.Rng.int r 6 in
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
      let lab = Helpers.random_labeling r ~m ~n_labels:4 in
      let gu =
        Helpers.random_union
          (Helpers.random_bipartite_pattern ~n_labels:4 ~n_left:2 ~n_right:2)
          r
          ~z:(1 + Util.Rng.int r 2)
      in
      let p_opt =
        check_kernels "bipartite"
          (fun ~kernel ~par -> exact ?par ~kernel `Bipartite model lab gu)
      in
      let p_basic =
        check_kernels "bipartite_basic"
          (fun ~kernel ~par -> exact ?par ~kernel `Bipartite_basic model lab gu)
      in
      Helpers.check_close "optimized vs basic" p_basic p_opt;
      true)

let prop_general =
  Helpers.qtest ~count:25 (named "flat == boxed: signature DP (IE terms)")
    seed_gen (fun seed ->
      let r = Helpers.rng (3000 + seed) in
      let m = 3 + Util.Rng.int r 5 in
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r m) in
      let lab = Helpers.random_labeling r ~m ~n_labels:3 in
      let gu =
        Helpers.random_union
          (Helpers.random_general_pattern ~n_labels:3 ~n_nodes:3)
          r
          ~z:(1 + Util.Rng.int r 3)
      in
      ignore
        (check_kernels "general"
           (fun ~kernel ~par -> exact ?par ~kernel `General model lab gu));
      true)

(* ------------------------------------------------------------------ *)
(* Engine-level kernel selection                                        *)
(* ------------------------------------------------------------------ *)

let unit_engine_kernel_bit_identity () =
  let db = Datasets.Polls.generate ~n_candidates:8 ~n_voters:40 ~seed:3 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  let answer kernel =
    Engine.with_engine
      Engine.Config.(default |> with_kernel kernel)
      (fun engine ->
        Engine.Response.answer_float
          (Engine.eval engine (Engine.Request.make ~seed:3 db q)))
  in
  check_bits "Engine.Config kernel" (answer Hardq.Kernel.Boxed)
    (answer Hardq.Kernel.Flat)

(* ------------------------------------------------------------------ *)
(* Arena lifecycle: the per-domain spare table pair                     *)
(* ------------------------------------------------------------------ *)

(* A solver call checks its two layer tables out of the domain's spare
   pair: the same grown pair comes back call after call (at whatever
   width the call asks for), a nested (or concurrent) holder never
   shares it, a holder that raised leaves nothing behind, and a pair
   past the retention cap — here a 10^5-state layer — is dropped instead
   of staying resident. *)
let unit_spare_pair_lifecycle () =
  let fill t n = for i = 0 to n - 1 do add t (Array.make (Fixed.width t) i) 1. done in
  let first =
    Fixed.with_pair ~name:"a" ~width:1 ~max_states:100 (fun t0 t1 ->
        fill t0 3;
        fill t1 5;
        t0)
  in
  if Fixed.spare_words () = 0 then Alcotest.fail "a small pair is kept";
  let again =
    Fixed.with_pair ~name:"b" ~width:4 ~max_states:100 (fun t0 t1 ->
        Alcotest.(check int)
          "checked out empty" 0
          (Fixed.length t0 + Fixed.length t1);
        Alcotest.(check int) "the new width applies" 4 (Fixed.width t1);
        Fixed.with_pair ~name:"c" ~width:1 ~max_states:100 (fun u0 u1 ->
            Alcotest.(check bool)
              "a nested holder gets other tables" true
              (u0 != t0 && u0 != t1 && u1 != t0 && u1 != t1));
        t0)
  in
  Alcotest.(check bool) "the grown pair is reused" true (first == again);
  (match
     Fixed.with_pair ~name:"boom" ~width:1 ~max_states:4 (fun t0 _ ->
         fill t0 10)
   with
  | () -> Alcotest.fail "expected state explosion"
  | exception Hardq.Dp_table.State_explosion { table; cap } ->
      Alcotest.(check string) "checked-out name" "boom" table;
      Alcotest.(check int) "checked-out cap" 4 cap);
  Fixed.with_pair ~name:"d" ~width:2 ~max_states:100 (fun t0 t1 ->
      Alcotest.(check int)
        "an aborted holder left nothing" 0
        (Fixed.length t0 + Fixed.length t1);
      fill t0 50;
      Alcotest.(check int) "the new cap applies" 50 (Fixed.length t0));
  Fixed.with_pair ~name:"big" ~width:1 ~max_states:200_000 (fun t0 _ ->
      fill t0 100_000);
  if Fixed.spare_words () > Fixed.retain_cap_words then
    Alcotest.failf "retained %d words past the %d-word cap"
      (Fixed.spare_words ()) Fixed.retain_cap_words

(* The cold-exact request shape, answered as comparable bits. *)
let cold_db () = Datasets.Polls.generate ~n_candidates:10 ~n_voters:60 ~seed:42 ()
let cold_q = Ppd.Parser.parse Datasets.Polls.query_two_label

let cold_tasks =
  [ Engine.Request.Count; Engine.Request.Top_k { k = 3; strategy = `Edges 1 } ]

let cold_config =
  Engine.Config.(
    default |> with_jobs nd |> with_answer_capacity 0 |> with_term_capacity 0)

let answer_bits (r : Engine.Response.t) =
  let bits = Int64.bits_of_float in
  match r.Engine.Response.answer with
  | Engine.Response.Probability p | Engine.Response.Expectation p ->
      [ ([||], bits p) ]
  | Engine.Response.Ranked l ->
      List.map (fun ((s : Ppd.Database.session), p) -> (s.key, bits p)) l

let cold_answers engine db =
  List.map
    (fun task ->
      answer_bits (Engine.eval engine (Engine.Request.make ~task db cold_q)))
    cold_tasks

(* The five flat kernels on one input shape each, at a size [m]: the
   kernel's name, the table name its {!Hardq.Dp_table.State_explosion}
   carries, its state cap, and the call at [m] (the input is built
   once, then solved under a budget per call). Sizes [small]
   and [large] are [unit_no_alloc_per_expansion]'s. *)
let flat_kernels =
  let labeled m ~labels =
    ( Rim.Mallows.to_rim
        (Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi:0.5),
      Prefs.Labeling.make (Array.init m (fun i -> [ i mod labels ])) )
  in
  let two_edges =
    Prefs.Pattern_union.make
      [
        Prefs.Pattern.two_label ~left:[ 1 ] ~right:[ 0 ];
        Prefs.Pattern.two_label ~left:[ 3 ] ~right:[ 2 ];
      ]
  in
  let union solve m =
    let model, lab = labeled m ~labels:4 in
    fun budget -> solve ~budget model lab two_edges
  in
  let chain m =
    let model, _ = labeled m ~labels:1 in
    let po = Prefs.Partial_order.of_chain [ m - 1; m / 2; 0; m - 2 ] in
    fun budget -> Hardq.Po_solver.prob ~budget model po
  in
  let signature m =
    let model, lab = labeled m ~labels:3 in
    let g = Prefs.Pattern.chain [ [ 2 ]; [ 1 ]; [ 0 ] ] in
    fun budget -> Hardq.Pattern_solver.prob_general ~budget model lab g
  in
  [
    ( "two-label", "Two_label", Hardq.Two_label.max_states,
      union (fun ~budget m l u -> Hardq.Two_label.prob ~budget m l u), 16, 32 );
    ( "bipartite", "Bipartite", Hardq.Bipartite.max_states,
      union (fun ~budget m l u -> Hardq.Bipartite.prob ~budget m l u), 24, 32 );
    ( "bipartite basic", "Bipartite (basic)", Hardq.Bipartite.max_states,
      union (fun ~budget m l u -> Hardq.Bipartite.prob_basic ~budget m l u),
      12, 16 );
    ("RIM matching", "Po_solver", Hardq.Po_solver.max_states, chain, 16, 40);
    ( "signature", "Pattern_solver", Hardq.Pattern_solver.max_states,
      signature, 10, 13 );
  ]

(* A DP that raises — past its state cap mid-layer, or out of a tiny CPU
   budget — hands its tables back dirty; the next solves on the same
   engine must still match a fresh engine's to the bit, and so must the
   next direct call of each flat kernel match a call made before the
   aborts. Each kernel's explosion names its own table, and each aborted
   call still counts as one [dp.flat] call with the states it built. *)
let unit_arena_after_abort () =
  let counted name what abort =
    let before = Obs.snapshot () in
    abort ();
    let d = Obs.diff before (Obs.snapshot ()) in
    Alcotest.(check int)
      (Printf.sprintf "%s: %s call counted" name what)
      1
      (Obs.count d "dp.flat.calls");
    if Obs.count d "dp.flat.states" <= 0 then
      Alcotest.failf "%s: %s call counted no states" name what
  in
  let db = cold_db () in
  let fresh = Engine.with_engine cold_config (fun e -> cold_answers e db) in
  Engine.with_engine cold_config (fun engine ->
      let saved = !Hardq.Two_label.max_states in
      (match
         Fun.protect
           ~finally:(fun () -> Hardq.Two_label.max_states := saved)
           (fun () ->
             Hardq.Two_label.max_states := 20;
             Engine.eval engine (Engine.Request.make db cold_q))
       with
      | _ -> Alcotest.fail "expected a state explosion"
      | exception Hardq.Dp_table.State_explosion { table; cap } ->
          Alcotest.(check string) "table" "Two_label" table;
          Alcotest.(check int) "cap" 20 cap);
      (match Engine.eval engine (Engine.Request.make ~budget:1e-9 db cold_q) with
      | _ -> Alcotest.fail "expected Out_of_time"
      | exception Util.Timer.Out_of_time -> ());
      if cold_answers engine db <> fresh then
        Alcotest.fail "answers after an aborted DP differ from a fresh engine's");
  List.iter
    (fun (name, table, max_states, solve, m, _) ->
      let solve = solve m in
      let fresh = solve Util.Timer.no_limit in
      let saved = !max_states in
      counted name "capped" (fun () ->
          match
            Fun.protect
              ~finally:(fun () -> max_states := saved)
              (fun () ->
                max_states := 3;
                solve Util.Timer.no_limit)
          with
          | _ -> Alcotest.failf "%s: expected a state explosion" name
          | exception Hardq.Dp_table.State_explosion { table = t; cap } ->
              Alcotest.(check string) (name ^ ": table") table t;
              Alcotest.(check int) (name ^ ": cap") 3 cap);
      counted name "out-of-budget" (fun () ->
          match solve (Util.Timer.budget 1e-9) with
          | _ -> Alcotest.failf "%s: expected Out_of_time" name
          | exception Util.Timer.Out_of_time -> ());
      check_bits (name ^ ": after aborts vs before") fresh
        (solve Util.Timer.no_limit))
    flat_kernels

(* Two threads evaluating through one engine (one pool, one spare pair
   per domain) answer exactly as a sequential run does. *)
let unit_arena_two_threads () =
  let db = cold_db () in
  let seq = Engine.with_engine cold_config (fun e -> cold_answers e db) in
  Engine.with_engine cold_config (fun engine ->
      let results = Array.make 2 [] in
      let threads =
        List.init 2 (fun k ->
            Thread.create
              (fun () ->
                results.(k) <- List.init 3 (fun _ -> cold_answers engine db))
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun k runs ->
          Alcotest.(check int) (Printf.sprintf "thread %d finished" k) 3
            (List.length runs);
          List.iter
            (fun a ->
              if a <> seq then
                Alcotest.failf "thread %d: answers differ from sequential" k)
            runs)
        results)

(* Figure 9's shape widened to [z] edges under MAL(identity, [phi]):
   edge e's right label is on two of every three items of the top
   [block] places and its left label on two of every three of the bottom
   [block], so every edge needs a long inversion. *)
let fig9_union ~m ~z ~block ~phi =
  let model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make ~center:(Prefs.Ranking.identity m) ~phi)
  in
  let labels = Array.make m [] in
  for e = 0 to z - 1 do
    for pos = 0 to block - 1 do
      let k = (pos + e) mod 3 in
      if k <> 2 then labels.(pos) <- ((2 * e) + 1) :: labels.(pos);
      if k <> 1 then labels.(m - 1 - pos) <- (2 * e) :: labels.(m - 1 - pos)
    done
  done;
  let gu =
    Prefs.Pattern_union.make
      (List.init z (fun e ->
           Prefs.Pattern.two_label ~left:[ 2 * e ] ~right:[ (2 * e) + 1 ]))
  in
  (model, Prefs.Labeling.make labels, gu)

(* Three edges at m = 20 under φ = 0.05, block 7: the layers pass
   Dp_par's cut-off, so a pool of two or more domains sends each state's
   satisfied mass through the chunked [emit_prob] route, and p is about
   6e-9. *)
let unit_small_p_chunked () =
  let model, lab, gu = fig9_union ~m:20 ~z:3 ~block:7 ~phi:0.05 in
  let solve ~kernel ~par = exact ?par ~kernel `Two_label model lab gu in
  let before = Obs.snapshot () in
  let p = check_kernels "small p, chunked layers" solve in
  (match Obs.find (Obs.diff before (Obs.snapshot ())) "dp.flat.layer_width" with
  | Some (Obs.Hist { buckets; _ })
    when List.exists (fun (lo, _) -> lo >= Hardq.Dp_par.default_min_par) buckets
    ->
      ()
  | _ -> Alcotest.fail "no layer reached the parallel cut-off");
  with_pool (max 2 nd) (fun pool ->
      check_bits "small p, chunked layers, 2+ domains" p
        (solve ~kernel:Hardq.Kernel.Flat ~par:(Some (Engine.Pool.sharer pool))));
  check_small "small p, chunked layers" p;
  Helpers.check_rel ~tol:1e-12 "small p vs Bipartite.prob"
    (Hardq.Bipartite.prob model lab gu)
    p

(* Four edges at m = 22 under φ = 0.1, block 7: p is about 9.9e-9. Both
   bipartite DPs add up their satisfied mass by compensated summation,
   so the optimized one agrees with the two-label DP to 1e-12 relative
   in both kernels (a plain running sum was 1.8e-12 off). *)
let unit_bipartite_small_p () =
  let model, lab, gu = fig9_union ~m:22 ~z:4 ~block:7 ~phi:0.1 in
  let p_two = exact `Two_label model lab gu in
  check_small "two-label, four edges at m = 22" p_two;
  let p =
    check_kernels "bipartite, four edges at m = 22" (fun ~kernel ~par ->
        exact ?par ~kernel `Bipartite model lab gu)
  in
  Helpers.check_rel ~tol:1e-12 "Bipartite.prob vs Two_label.prob" p_two p

(* One item carries both labels of an edge, and σ inserts it after items
   carrying each label alone, so both of its words are already set when
   it lands: the positions that satisfy are the union of the left hit's
   prefix and the right hit's suffix. Checked against brute force over
   several centers and spreads. *)
let unit_both_sides_hit () =
  let lab = Prefs.Labeling.make [| [ 1 ]; [ 0 ]; [ 2 ]; [ 0; 1 ]; [ 1 ]; []; [ 0; 2 ] |] in
  let gu =
    Prefs.Pattern_union.make
      [
        Prefs.Pattern.two_label ~left:[ 0 ] ~right:[ 1 ];
        Prefs.Pattern.two_label ~left:[ 2 ] ~right:[ 1 ];
      ]
  in
  List.iter
    (fun (center, phi) ->
      let model =
        Rim.Mallows.to_rim
          (Rim.Mallows.make ~center:(Prefs.Ranking.of_array center) ~phi)
      in
      let what = Printf.sprintf "both sides hit, phi=%g" phi in
      let p =
        check_kernels what (fun ~kernel ~par ->
            exact ?par ~kernel `Two_label model lab gu)
      in
      Helpers.check_close ~eps:1e-12 (what ^ " vs brute force")
        (Hardq.Brute.prob model lab gu) p)
    [
      ([| 0; 1; 2; 3; 4; 5; 6 |], 0.3);
      ([| 1; 0; 4; 3; 2; 6; 5 |], 0.7);
      ([| 6; 5; 4; 3; 2; 1; 0 |], 0.5);
      ([| 2; 4; 0; 1; 3; 6; 5 |], 1.);
    ]

(* DESIGN §13.4's "no allocation per expansion": a warm call's minor
   words do not grow with the number of states it expands. Each flat
   kernel runs one union shape at two sizes of m; the larger expands
   thousands more states (each made by at least one emission), and its
   extra minor words stay under half a word per extra state, where a
   float boxed per emission would cost at least two. Both sizes outgrow
   the spare pair's retention cap or neither does, so fresh tables cost
   both the same; arrays past 256 words are born in the major heap, and
   per-layer scratch is a few dozen words. *)
let unit_no_alloc_per_expansion () =
  let measure f =
    ignore (f ());
    ignore (f ());
    let before = Obs.snapshot () in
    let w0 = Gc.minor_words () in
    ignore (f ());
    let words = Gc.minor_words () -. w0 in
    (words, Obs.count (Obs.diff before (Obs.snapshot ())) "dp.flat.states")
  in
  List.iter
    (fun (name, _, _, solve, small, large) ->
      let shape m =
        let solve = solve m in
        fun () -> solve Util.Timer.no_limit
      in
      let w_small, s_small = measure (shape small)
      and w_large, s_large = measure (shape large) in
      if s_large - s_small < 5000 then
        Alcotest.failf "%s: m = %d expands only %d more states than m = %d"
          name large (s_large - s_small) small;
      if w_large -. w_small > 0.5 *. float_of_int (s_large - s_small) then
        Alcotest.failf
          "%s: %.0f more minor words for %d more states (m = %d vs %d)" name
          (w_large -. w_small) (s_large - s_small) large small)
    flat_kernels

let suites =
  [
    ( "kernel",
      [
        tc "Kernel.of_string round-trips and rejects garbage" `Quick
          unit_kernel_of_string;
        tc "Boxed table: insertion order, merge, sum" `Quick
          unit_boxed_insertion_order;
        tc "Flat table: insertion order, merge, sum" `Quick unit_flat_basics;
        tc "Flat table: growth, rehash, clear keeps capacity" `Quick
          unit_flat_growth_and_clear;
        tc "Flat table: state explosion names the table" `Quick
          unit_flat_state_explosion;
        tc "Flat table: empty or padded seed state" `Quick
          unit_flat_seed_state;
        tc (named "m=1 domain: all solvers, both kernels") `Quick
          unit_single_item_domain;
        tc (named "statically infeasible union short-circuits") `Quick
          unit_statically_infeasible;
        tc (named "layers empty mid-query (certain union)") `Quick
          unit_emptying_layers;
        tc (named "arena grows mid-query (m=30)") `Slow
          unit_arena_growth_mid_query;
        prop_two_label;
        prop_one_int_boundary;
        prop_two_label_small_p;
        tc (named "small-p union across the parallel cut-off") `Quick
          unit_small_p_chunked;
        tc (named "an item carrying both labels of an edge") `Quick
          unit_both_sides_hit;
        tc (named "bipartite sum at small p (four edges, m=22)") `Quick
          unit_bipartite_small_p;
        prop_bipartite;
        prop_general;
        tc "Engine.Config.with_kernel is answer-invisible" `Quick
          unit_engine_kernel_bit_identity;
        tc "spare pair: reuse, exclusive checkout, retention cap" `Quick
          unit_spare_pair_lifecycle;
        tc "flat kernels: no minor words per expansion" `Quick
          unit_no_alloc_per_expansion;
        tc (named "arena after an aborted DP: answers as fresh") `Quick
          unit_arena_after_abort;
        tc (named "arena under two threads: answers as sequential") `Quick
          unit_arena_two_threads;
      ] );
  ]

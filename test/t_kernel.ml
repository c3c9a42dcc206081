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

let unit_flat_basics () =
  let t =
    Hardq.Dp_table.Flat.create ~capacity_words:4 ~name:"t" ~max_states:100 ()
  in
  Hardq.Dp_table.Flat.add t [| 9; 3; 7 |] 1 2 0.25;
  Hardq.Dp_table.Flat.add t [| 5; 5 |] 0 2 0.5;
  Hardq.Dp_table.Flat.add t [| 3; 7 |] 0 2 0.125;
  Alcotest.(check int) "distinct states" 2 (Hardq.Dp_table.Flat.length t);
  Alcotest.(check (float 0.)) "duplicate merged" 0.375
    (Hardq.Dp_table.Flat.prob t 0);
  let data = Hardq.Dp_table.Flat.data t in
  let words s =
    Array.sub data (Hardq.Dp_table.Flat.off t s) (Hardq.Dp_table.Flat.len t s)
  in
  Alcotest.(check (array int)) "slot 0 words" [| 3; 7 |] (words 0);
  Alcotest.(check (array int)) "slot 1 words" [| 5; 5 |] (words 1);
  Alcotest.(check (float 0.)) "sum" 0.875 (Hardq.Dp_table.Flat.sum t)

(* Growth + clear: push enough distinct states through a tiny arena to
   force both arena growth and index rehashes, then verify every span
   survived verbatim; [clear] must keep the capacity. *)
let unit_flat_growth_and_clear () =
  let t =
    Hardq.Dp_table.Flat.create ~capacity_words:2 ~name:"t" ~max_states:10_000 ()
  in
  let n = 300 in
  for i = 0 to n - 1 do
    Hardq.Dp_table.Flat.add t [| i; i * 7; i land 3 |] 0 3 (float_of_int i)
  done;
  Alcotest.(check int) "all states distinct" n (Hardq.Dp_table.Flat.length t);
  let data = Hardq.Dp_table.Flat.data t in
  for i = 0 to n - 1 do
    let off = Hardq.Dp_table.Flat.off t i in
    Alcotest.(check int) "len" 3 (Hardq.Dp_table.Flat.len t i);
    if data.(off) <> i || data.(off + 1) <> i * 7 || data.(off + 2) <> i land 3
    then Alcotest.failf "state %d corrupted by growth" i
  done;
  Alcotest.(check int) "used words" (3 * n) (Hardq.Dp_table.Flat.used_words t);
  let cap = Hardq.Dp_table.Flat.capacity_words t in
  Hardq.Dp_table.Flat.clear t;
  Alcotest.(check int) "clear empties" 0 (Hardq.Dp_table.Flat.length t);
  Alcotest.(check int) "clear keeps capacity" cap
    (Hardq.Dp_table.Flat.capacity_words t);
  (* Reuse after clear: the retained index must not resurrect old
     states. *)
  Hardq.Dp_table.Flat.add t [| 1; 7; 1 |] 0 3 0.5;
  Alcotest.(check int) "fresh after clear" 1 (Hardq.Dp_table.Flat.length t);
  Alcotest.(check (float 0.)) "fresh prob" 0.5 (Hardq.Dp_table.Flat.prob t 0)

let unit_flat_state_explosion () =
  let t = Hardq.Dp_table.Flat.create ~name:"boom" ~max_states:3 () in
  for i = 0 to 2 do
    Hardq.Dp_table.Flat.add t [| i |] 0 1 1.
  done;
  match Hardq.Dp_table.Flat.add t [| 99 |] 0 1 1. with
  | () -> Alcotest.fail "expected state explosion"
  | exception Hardq.Dp_table.State_explosion { table = msg; cap } ->
      Alcotest.(check bool) "failure names the table" true (contains msg "boom");
      Alcotest.(check int) "failure carries the cap" 3 cap

(* Zero-length states are legal (the signature DP's seed layer). *)
let unit_flat_empty_state () =
  let t = Hardq.Dp_table.Flat.create ~name:"t" ~max_states:10 () in
  Hardq.Dp_table.Flat.add t [||] 0 0 0.25;
  Hardq.Dp_table.Flat.add t [||] 0 0 0.25;
  Hardq.Dp_table.Flat.add t [| 4 |] 0 1 0.5;
  Alcotest.(check int) "two states" 2 (Hardq.Dp_table.Flat.length t);
  Alcotest.(check int) "empty span" 0 (Hardq.Dp_table.Flat.len t 0);
  Alcotest.(check (float 0.)) "empty merged" 0.5 (Hardq.Dp_table.Flat.prob t 0)

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
    [ `Two_label; `Bipartite; `Bipartite_basic; `General ]

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

module Flat = Hardq.Dp_table.Flat

(* A solver call checks its two layer tables out of the domain's spare
   pair: the same grown pair comes back call after call, a nested (or
   concurrent) holder never shares it, a holder that raised leaves
   nothing behind, and a pair past the retention cap — here a 10^5-state
   layer — is dropped instead of staying resident. *)
let unit_spare_pair_lifecycle () =
  let fill t n = for i = 0 to n - 1 do Flat.add t [| i |] 0 1 1. done in
  let first =
    Flat.with_pair ~name:"a" ~max_states:100 (fun t0 t1 ->
        fill t0 3;
        fill t1 5;
        t0)
  in
  if Flat.spare_words () = 0 then Alcotest.fail "a small pair is kept";
  let again =
    Flat.with_pair ~name:"b" ~max_states:100 (fun t0 t1 ->
        Alcotest.(check int)
          "checked out empty" 0
          (Flat.length t0 + Flat.length t1);
        Flat.with_pair ~name:"c" ~max_states:100 (fun u0 u1 ->
            Alcotest.(check bool)
              "a nested holder gets other tables" true
              (u0 != t0 && u0 != t1 && u1 != t0 && u1 != t1));
        t0)
  in
  Alcotest.(check bool) "the grown pair is reused" true (first == again);
  (match
     Flat.with_pair ~name:"boom" ~max_states:4 (fun t0 _ -> fill t0 10)
   with
  | () -> Alcotest.fail "expected state explosion"
  | exception Hardq.Dp_table.State_explosion { table; cap } ->
      Alcotest.(check string) "checked-out name" "boom" table;
      Alcotest.(check int) "checked-out cap" 4 cap);
  Flat.with_pair ~name:"d" ~max_states:100 (fun t0 t1 ->
      Alcotest.(check int)
        "an aborted holder left nothing" 0
        (Flat.length t0 + Flat.length t1);
      fill t0 50;
      Alcotest.(check int) "the new cap applies" 50 (Flat.length t0));
  Flat.with_pair ~name:"big" ~max_states:200_000 (fun t0 _ -> fill t0 100_000);
  if Flat.spare_words () > Flat.retain_cap_words then
    Alcotest.failf "retained %d words past the %d-word cap"
      (Flat.spare_words ()) Flat.retain_cap_words

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

(* A DP that raises — past its state cap mid-layer, or out of a tiny CPU
   budget — hands its tables back dirty; the next solves on the same
   engine must still match a fresh engine's to the bit. *)
let unit_arena_after_abort () =
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
        Alcotest.fail "answers after an aborted DP differ from a fresh engine's")

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

let suites =
  [
    ( "kernel",
      [
        tc "Kernel.of_string round-trips and rejects garbage" `Quick
          unit_kernel_of_string;
        tc "Boxed table: insertion order, merge, sum" `Quick
          unit_boxed_insertion_order;
        tc "Flat table: spans, merge, sum" `Quick unit_flat_basics;
        tc "Flat table: growth, rehash, clear keeps capacity" `Quick
          unit_flat_growth_and_clear;
        tc "Flat table: state explosion names the table" `Quick
          unit_flat_state_explosion;
        tc "Flat table: zero-length states" `Quick unit_flat_empty_state;
        tc (named "m=1 domain: all solvers, both kernels") `Quick
          unit_single_item_domain;
        tc (named "statically infeasible union short-circuits") `Quick
          unit_statically_infeasible;
        tc (named "layers empty mid-query (certain union)") `Quick
          unit_emptying_layers;
        tc (named "arena grows mid-query (m=30)") `Slow
          unit_arena_growth_mid_query;
        prop_two_label;
        prop_bipartite;
        prop_general;
        tc "Engine.Config.with_kernel is answer-invisible" `Quick
          unit_engine_kernel_bit_identity;
        tc "spare pair: reuse, exclusive checkout, retention cap" `Quick
          unit_spare_pair_lifecycle;
        tc (named "arena after an aborted DP: answers as fresh") `Quick
          unit_arena_after_abort;
        tc (named "arena under two threads: answers as sequential") `Quick
          unit_arena_two_threads;
      ] );
  ]

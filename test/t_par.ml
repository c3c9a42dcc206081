(* Intra-query parallelism: the deterministic-reduction contract. Every
   solver must return bit-identical floats whatever the pool width, the
   work-sharing pool must survive saturation and nesting, the memoized
   inclusion–exclusion must equal the unmemoized sum exactly, and the
   chunked rejection sampler must be a pure function of its seed.

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

(* ------------------------------------------------------------------ *)
(* Fixed instances covering every parallel code path                    *)
(* ------------------------------------------------------------------ *)

(* A z = 4 general union on m = 6: 15 inclusion–exclusion terms, so the
   IE fan-out engages even though each term's DP layer is small. *)
let general_instance () =
  let r = Helpers.rng 2026 in
  let model = Rim.Mallows.to_rim (Helpers.random_mallows r 6) in
  let lab = Helpers.random_labeling r ~m:6 ~n_labels:3 in
  let gu =
    Helpers.random_union (Helpers.random_general_pattern ~n_labels:3 ~n_nodes:3) r ~z:4
  in
  (model, lab, gu)

(* m = 30 two-label union: the DP state space crosses the sequential
   cut-off, so the layer loops really chunk across domains. *)
let two_label_instance () =
  let r = Helpers.rng 7 in
  let model = Rim.Mallows.to_rim (Helpers.random_mallows ~phi:0.8 r 30) in
  let lab = Helpers.random_labeling ~p:0.3 r ~m:30 ~n_labels:5 in
  let gu =
    Helpers.random_union (Helpers.random_two_label_pattern ~n_labels:5) r ~z:3
  in
  (model, lab, gu)

(* A bipartite union on m = 10 (chunked brute enumeration territory:
   7 < m <= 10, 10!/5040 = 720 chunks). *)
let bipartite_instance () =
  let r = Helpers.rng 19 in
  let model = Rim.Mallows.to_rim (Helpers.random_mallows ~phi:0.6 r 10) in
  let lab = Helpers.random_labeling r ~m:10 ~n_labels:4 in
  let gu =
    Helpers.random_union
      (Helpers.random_bipartite_pattern ~n_labels:4 ~n_left:2 ~n_right:2)
      r ~z:2
  in
  (model, lab, gu)

let solver_name = function
  | `Brute -> "brute"
  | `General -> "general"
  | `Two_label -> "two_label"
  | `Bipartite -> "bipartite"
  | `Bipartite_basic -> "bipartite_basic"
  | `Auto -> "auto"

(* The matrix itself: every applicable exact solver, sequential vs under
   pools of width 1, 2 and the HARDQ_TEST_DOMAINS setting, must agree to
   the last bit. *)
let unit_solver_matrix_bit_identity () =
  let widths = List.sort_uniq compare [ 1; 2; nd ] in
  List.iter
    (fun (label, (model, lab, gu), solvers) ->
      let seq =
        List.map (fun s -> (s, Hardq.Solver.exact_prob s model lab gu)) solvers
      in
      List.iter
        (fun jobs ->
          with_pool jobs (fun pool ->
              let par = Engine.Pool.sharer pool in
              List.iter
                (fun (s, p_seq) ->
                  let p_par = Hardq.Solver.exact_prob ~par s model lab gu in
                  check_bits
                    (Printf.sprintf "%s/%s @ %d domains" label (solver_name s)
                       jobs)
                    p_seq p_par)
                seq))
        widths)
    [
      (* The general solver is omitted at m = 30: its signature DP is
         exponential in the conjunction there, and this test runs without
         a budget. The oracle matrix covers budgeted general runs. *)
      ("general-z4", general_instance (), [ `Brute; `General; `Auto ]);
      ( "two-label-m30",
        two_label_instance (),
        [ `Two_label; `Bipartite; `Auto ] );
      ( "bipartite-m10",
        bipartite_instance (),
        [ `Brute; `General; `Bipartite; `Bipartite_basic; `Auto ] );
    ]

(* Engine level: jobs = nd with `Intra vs jobs = 1, and `Intra vs
   `Inter at the same width, are the same floats. *)
let unit_engine_bit_identity () =
  let db = Datasets.Polls.generate ~n_candidates:10 ~n_voters:40 ~seed:3 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  let eval ~jobs ~parallelism =
    Engine.with_engine
      Engine.Config.(
        default |> with_jobs jobs |> with_answer_capacity 0 |> with_term_capacity 0)
      (fun engine ->
        Engine.Response.answer_float
          (Engine.eval engine (Engine.Request.make ~parallelism db q)))
  in
  let reference = eval ~jobs:1 ~parallelism:`Inter in
  check_bits "jobs=1 intra" reference (eval ~jobs:1 ~parallelism:`Intra);
  check_bits
    (Printf.sprintf "jobs=%d intra" nd)
    reference
    (eval ~jobs:nd ~parallelism:`Intra);
  check_bits
    (Printf.sprintf "jobs=%d inter" nd)
    reference
    (eval ~jobs:nd ~parallelism:`Inter)

(* Pinned DP work: the cold-exact request shape (Polls, m = 10, 60
   sessions, both store tiers at capacity 0) must make exactly these solver calls
   and expand exactly these flat DP states at every pool width. A kernel
   rewrite may make states cheaper, never more or fewer; a lost prune, a
   broken grouping or a changed emission order moves these counts. The
   two-label DP's dead-edge rule (DESIGN §13.2) took the counts from
   10404 to 6556 states (Count) and from 63 calls / 11051 states to
   64 / 7092 (top-3): the top-k prune slack keeps one more session whose
   bound ties the k-th answer. *)
let unit_pinned_dp_work () =
  let db = Datasets.Polls.generate ~n_candidates:10 ~n_voters:60 ~seed:42 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  let work task =
    Engine.with_engine
      Engine.Config.(
        default |> with_jobs nd |> with_answer_capacity 0 |> with_term_capacity 0)
      (fun engine ->
        let before = Obs.snapshot () in
        ignore (Engine.eval engine (Engine.Request.make ~task db q));
        let d = Obs.diff before (Obs.snapshot ()) in
        ( Obs.count d "solver.two_label.calls",
          Obs.count d "dp.flat.states",
          Obs.count d "solver.upper_bound.calls" ))
  in
  let check what (calls, states, bounds) (calls', states', bounds') =
    Alcotest.(check int) (what ^ ": two-label calls") calls calls';
    Alcotest.(check int) (what ^ ": dp.flat.states") states states';
    Alcotest.(check int) (what ^ ": upper-bound calls") bounds bounds'
  in
  check "fig4 count" (59, 6556, 0) (work Engine.Request.Count);
  check "fig4 top-3 (1 edge)" (64, 7092, 60)
    (work (Engine.Request.Top_k { k = 3; strategy = `Edges 1 }))

(* The same sessions without a pinned constant: with the dead-edge rule
   the two-label DP (Algorithm 3) keeps no more states than the
   optimized bipartite DP (Algorithm 4), whose violated-edge rule it
   shares, on every Figure 4 session. *)
let unit_two_label_states_within_bipartite () =
  let db = Datasets.Polls.generate ~n_candidates:10 ~n_voters:60 ~seed:42 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  (* Compiling interns the query's labels, so it precedes the labeling. *)
  let requests = (Ppd.Compile.compile db q).Ppd.Compile.requests in
  let lab = Ppd.Database.labeling db in
  let states counter solve =
    let before = Obs.snapshot () in
    ignore (solve ());
    Obs.count (Obs.diff before (Obs.snapshot ())) counter
  in
  List.iter
    (fun { Ppd.Compile.session; union } ->
      Option.iter
        (fun u ->
          let model = Rim.Mallows.to_rim session.Ppd.Database.model in
          let two_label =
            states "solver.two_label.dp_states" (fun () ->
                Hardq.Two_label.prob model lab u)
          and bipartite =
            states "solver.bipartite.dp_states" (fun () ->
                Hardq.Bipartite.prob model lab u)
          in
          if two_label > bipartite then
            Alcotest.failf "session %s: two-label %d states > bipartite %d"
              (Ppd.Value.to_string session.Ppd.Database.key.(0))
              two_label bipartite)
        union)
    requests

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                    *)
(* ------------------------------------------------------------------ *)

(* Parallel inclusion–exclusion equals the sequential sum exactly — not
   within eps — on random general unions, under the matrix pool. *)
let prop_general_par_bit_identical =
  Helpers.qtest ~count:40
    (named "parallel IE sum == sequential, bit for bit")
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
          ~z:(2 + (seed mod 3))
      in
      let p_seq = Hardq.General.prob model lab gu in
      with_pool nd (fun pool ->
          let p_par = Hardq.General.prob ~par:(Engine.Pool.sharer pool) model lab gu in
          if p_seq <> p_par then
            QCheck.Test.fail_reportf "seq=%.17g par=%.17g on %s" p_seq p_par
              (Format.asprintf "%a" Prefs.Pattern_union.pp gu);
          true))

(* ------------------------------------------------------------------ *)
(* Pool stress: nesting, saturation, shutdown                           *)
(* ------------------------------------------------------------------ *)

(* More top-level jobs than domains, every job fanning a sub-task back
   into the same pool: no deadlock, no lost or duplicated index. *)
let unit_pool_nested_saturation () =
  with_pool (max 2 nd) (fun pool ->
      let outer = (4 * Engine.Pool.size pool) + 3 in
      let inner = 97 in
      let hits = Array.init outer (fun _ -> Array.make inner 0) in
      Engine.Pool.run pool ~n:outer (fun i ->
          Engine.Pool.share pool ~n:inner (fun j ->
              (* slot (i, j) is owned by exactly this index pair *)
              hits.(i).(j) <- hits.(i).(j) + 1));
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j c ->
              if c <> 1 then Alcotest.failf "slot (%d,%d) ran %d times" i j c)
            row)
        hits)

(* Two levels of nesting under saturation — the publisher must fall back
   to inline execution rather than wait on itself. *)
let unit_pool_doubly_nested () =
  with_pool (max 2 nd) (fun pool ->
      let total = Atomic.make 0 in
      Engine.Pool.run pool ~n:8 (fun _ ->
          Engine.Pool.share pool ~n:8 (fun _ ->
              Engine.Pool.share pool ~n:8 (fun _ -> Atomic.incr total)));
      Alcotest.(check int) "all leaves ran" 512 (Atomic.get total))

(* share from off-pool callers, size-1 pools and shut-down pools all run
   inline and still cover every index. *)
let unit_pool_inline_fallbacks () =
  let covered share n =
    let hits = Array.make n false in
    share ~n (fun i -> hits.(i) <- true);
    Array.for_all Fun.id hits
  in
  with_pool 1 (fun pool ->
      Alcotest.(check bool)
        "size-1 pool" true
        (covered (Engine.Pool.share pool) 64));
  let pool = Engine.Pool.create ~jobs:(max 2 nd) () in
  Alcotest.(check bool)
    "share from off-pool caller" true
    (covered (Engine.Pool.share pool) 64);
  Engine.Pool.shutdown pool;
  Alcotest.(check bool)
    "share after shutdown" true
    (covered (Engine.Pool.share pool) 64);
  (* and the Par capability agrees *)
  let par = Engine.Pool.sharer pool in
  Alcotest.(check bool)
    "sharer after shutdown" true
    (covered (Util.Par.share par) 64)

(* Exceptions raised inside a shared sub-task propagate and leave the
   pool usable. *)
let unit_pool_share_exception () =
  with_pool (max 2 nd) (fun pool ->
      (match Engine.Pool.share pool ~n:64 (fun i -> if i = 11 then failwith "sub") with
      | () -> Alcotest.fail "expected the sub-task exception to propagate"
      | exception Failure m -> Alcotest.(check string) "message" "sub" m);
      let ok = Atomic.make 0 in
      Engine.Pool.share pool ~n:32 (fun _ -> Atomic.incr ok);
      Alcotest.(check int) "pool usable after failure" 32 (Atomic.get ok))

(* ------------------------------------------------------------------ *)
(* The chunked-expansion combinator itself                              *)
(* ------------------------------------------------------------------ *)

(* Dp_par.run replays emissions in index order: the float sum, the
   table-insertion order and the per-chunk finish hooks all match the
   sequential loop exactly, at any width. *)
let unit_dp_par_ordered_replay () =
  let n = 1000 in
  let expand () i ~emit ~emit_prob =
    emit (i mod 17) (1. /. float_of_int (i + 1));
    if i mod 3 = 0 then emit (i mod 5) (Float.of_int i *. 1e-3);
    emit_prob (1. /. float_of_int ((i * i) + 1))
  in
  let run par =
    let keys = ref [] in
    let sums = Hashtbl.create 32 in
    let prob = ref 0. in
    let chunks = ref 0 in
    Hardq.Dp_par.run ~par ~min_par:1 ~n
      ~ctx:(fun () -> incr chunks)
      ~expand
      ~add:(fun k p ->
        keys := k :: !keys;
        Hashtbl.replace sums k (p +. Option.value ~default:0. (Hashtbl.find_opt sums k)))
      ~add_prob:(fun p -> prob := !prob +. p)
      ();
    (List.rev !keys, Hashtbl.fold (fun k v acc -> (k, v) :: acc) sums [] |> List.sort compare, !prob, !chunks)
  in
  let k_seq, s_seq, p_seq, c_seq = run Util.Par.inline in
  Alcotest.(check int) "sequential path is one chunk" 1 c_seq;
  with_pool (max 2 nd) (fun pool ->
      let k_par, s_par, p_par, c_par = run (Engine.Pool.sharer pool) in
      Alcotest.(check (list int)) "key emission order" k_seq k_par;
      Alcotest.(check (list (pair int (float 0.)))) "per-key sums" s_seq s_par;
      check_bits "prob accumulator" p_seq p_par;
      if c_par < 1 then Alcotest.failf "no chunks ran (%d)" c_par)

(* ------------------------------------------------------------------ *)
(* Rejection sampler determinism                                        *)
(* ------------------------------------------------------------------ *)

(* n > 4096 triggers the chunked path: the estimate is a function of the
   seed and n alone, identical at width 1 and width nd. *)
let unit_rejection_chunked_determinism () =
  (* a deliberately interior probability (one witness per side, weak
     concentration), so estimates actually discriminate between streams *)
  let model =
    Rim.Mallows.to_rim
      (Rim.Mallows.make ~center:(Prefs.Ranking.identity 10) ~phi:0.9)
  in
  let lab =
    Prefs.Labeling.make
      (Array.init 10 (function 3 -> [ 0 ] | 6 -> [ 1 ] | _ -> []))
  in
  let gu =
    Prefs.Pattern_union.singleton
      (Prefs.Pattern.two_label ~left:[ 1 ] ~right:[ 0 ])
  in
  let estimate ?(par = Util.Par.inline) seed =
    Hardq.Estimate.value
      (Hardq.Rejection.estimate ~par ~n:10_000 model lab gu (Util.Rng.make seed))
  in
  let seq = estimate 99 in
  with_pool (max 2 nd) (fun pool ->
      check_bits "chunked estimate" seq
        (estimate ~par:(Engine.Pool.sharer pool) 99));
  with_pool 1 (fun pool ->
      check_bits "width-1 pool estimate" seq
        (estimate ~par:(Engine.Pool.sharer pool) 99));
  (* different seeds really are different streams: five draws of 10k
     samples on an interior-probability event cannot all coincide unless
     the chunk RNG derivation ignores the seed *)
  let all_equal =
    List.for_all (fun s -> estimate s = seq) [ 100; 101; 102; 103 ]
  in
  if all_equal then
    Alcotest.failf "five seeds all estimate %.17g — stream ignored the seed" seq

let suites =
  [
    ( Printf.sprintf "par %s" Helpers.domains_label,
      [
        tc (named "exact-solver matrix bit-identity") `Quick
          unit_solver_matrix_bit_identity;
        tc (named "engine intra/inter/jobs bit-identity") `Quick
          unit_engine_bit_identity;
        prop_general_par_bit_identical;
        tc (named "dp chunk replay is ordered") `Quick unit_dp_par_ordered_replay;
        tc (named "rejection chunking is seed-deterministic") `Quick
          unit_rejection_chunked_determinism;
        tc (named "pinned DP work on the cold-exact shape") `Quick
          unit_pinned_dp_work;
        tc "two-label states within bipartite on fig4 sessions" `Quick
          unit_two_label_states_within_bipartite;
      ] );
    ( "par.pool",
      [
        tc (named "nested share under saturation") `Quick
          unit_pool_nested_saturation;
        tc (named "doubly nested share") `Quick unit_pool_doubly_nested;
        tc "inline fallbacks cover every index" `Quick unit_pool_inline_fallbacks;
        tc "sub-task exception propagates" `Quick unit_pool_share_exception;
      ] );
  ]

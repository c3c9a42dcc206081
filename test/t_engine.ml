(* The evaluation engine: pool and LRU primitives, bit-identity of
   parallel/cached evaluation against the sequential [Ppd.Eval] reference,
   cache-hit accounting and solver-name round-tripping. *)

let tc = Alcotest.test_case

let check_float_eq what expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected exactly %.17g, got %.17g" what expected actual

let session_keys l =
  List.map
    (fun ((s : Ppd.Database.session), _) -> Array.to_list s.Ppd.Database.key)
    l

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let unit_pool_covers_every_index () =
  let pool = Engine.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let n = 1000 in
      let calls = Atomic.make 0 in
      let slots = Array.make n 0 in
      Engine.Pool.run pool ~n (fun i ->
          (* each slot is owned by exactly one index, so this write is
             race-free; the atomic counts total invocations *)
          slots.(i) <- slots.(i) + 1;
          Atomic.incr calls);
      Alcotest.(check int) "each index ran once" n (Atomic.get calls);
      Array.iteri
        (fun i c ->
          if c <> 1 then Alcotest.failf "index %d ran %d times" i c)
        slots;
      (* a second task on the same pool (fresh cursor generation) *)
      let sum = Atomic.make 0 in
      Engine.Pool.run pool ~n:100 (fun i -> ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) "second task sum" 4950 (Atomic.get sum))

let unit_pool_propagates_exceptions () =
  Engine.Pool.(
    let pool = create ~jobs:3 () in
    Fun.protect
      ~finally:(fun () -> shutdown pool)
      (fun () ->
        (match run pool ~n:64 (fun i -> if i = 17 then failwith "boom") with
        | () -> Alcotest.fail "expected the worker exception to propagate"
        | exception Failure m -> Alcotest.(check string) "message" "boom" m);
        (* the pool survives a failed task *)
        let ok = Atomic.make 0 in
        run pool ~n:10 (fun _ -> Atomic.incr ok);
        Alcotest.(check int) "pool usable after failure" 10 (Atomic.get ok)))

let unit_pool_inline_after_shutdown () =
  let pool = Engine.Pool.create ~jobs:4 () in
  Engine.Pool.shutdown pool;
  let hits = Array.make 8 false in
  Engine.Pool.run pool ~n:8 (fun i -> hits.(i) <- true);
  Alcotest.(check bool) "ran inline" true (Array.for_all Fun.id hits)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let unit_lru_eviction_and_promotion () =
  let c = Engine.Lru.create 2 in
  Engine.Lru.put c "a" 1;
  Engine.Lru.put c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Engine.Lru.find_opt c "a");
  (* "a" was just promoted, so inserting "c" must evict "b" *)
  Engine.Lru.put c "c" 3;
  Alcotest.(check int) "at capacity" 2 (Engine.Lru.length c);
  Alcotest.(check bool) "b evicted" false (Engine.Lru.mem c "b");
  Alcotest.(check bool) "a kept" true (Engine.Lru.mem c "a");
  Alcotest.(check bool) "c kept" true (Engine.Lru.mem c "c");
  Alcotest.(check (option int)) "miss on b" None (Engine.Lru.find_opt c "b");
  Alcotest.(check int) "hits" 1 (Engine.Lru.hits c);
  Alcotest.(check int) "misses" 1 (Engine.Lru.misses c);
  Engine.Lru.put c "a" 10;
  Alcotest.(check (option int)) "overwrite" (Some 10) (Engine.Lru.find_opt c "a");
  Engine.Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Engine.Lru.length c);
  Alcotest.(check int) "counters survive clear" 2 (Engine.Lru.hits c);
  Engine.Lru.reset_counters c;
  Alcotest.(check int) "counters reset" 0 (Engine.Lru.hits c + Engine.Lru.misses c)

let unit_lru_rejects_negative_capacity () =
  match Engine.Lru.create (-1) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let unit_lru_capacity_zero () =
  (* Degenerate but legal: stores nothing, every lookup is a miss. *)
  let c = Engine.Lru.create 0 in
  Engine.Lru.put c "a" 1;
  Alcotest.(check int) "stores nothing" 0 (Engine.Lru.length c);
  Alcotest.(check (option int)) "always misses" None (Engine.Lru.find_opt c "a");
  Alcotest.(check bool) "mem false" false (Engine.Lru.mem c "a");
  Alcotest.(check int) "miss counted" 1 (Engine.Lru.misses c);
  Alcotest.(check int) "no hits" 0 (Engine.Lru.hits c);
  Alcotest.(check int) "put is not an eviction" 0 (Engine.Lru.evictions c)

let unit_lru_capacity_one () =
  let c = Engine.Lru.create 1 in
  Engine.Lru.put c "a" 1;
  Alcotest.(check (option int)) "a stored" (Some 1) (Engine.Lru.find_opt c "a");
  Engine.Lru.put c "b" 2;
  Alcotest.(check int) "still one entry" 1 (Engine.Lru.length c);
  Alcotest.(check bool) "a evicted" false (Engine.Lru.mem c "a");
  Alcotest.(check (option int)) "b stored" (Some 2) (Engine.Lru.find_opt c "b");
  Alcotest.(check int) "one eviction" 1 (Engine.Lru.evictions c);
  Engine.Lru.put c "b" 3;
  Alcotest.(check (option int)) "overwrite, no eviction" (Some 3) (Engine.Lru.find_opt c "b");
  Alcotest.(check int) "overwrite is not an eviction" 1 (Engine.Lru.evictions c)

let unit_lru_eviction_order_interleaved_hits () =
  (* Hits promote, so the eviction order follows recency of *use*, not of
     insertion: after touching a and b, c is the LRU victim; after touching
     a again, b is. *)
  let c = Engine.Lru.create 3 in
  Engine.Lru.put c "a" 1;
  Engine.Lru.put c "b" 2;
  Engine.Lru.put c "c" 3;
  ignore (Engine.Lru.find_opt c "a");
  ignore (Engine.Lru.find_opt c "b");
  Engine.Lru.put c "d" 4;
  Alcotest.(check bool) "c evicted first" false (Engine.Lru.mem c "c");
  ignore (Engine.Lru.find_opt c "a");
  Engine.Lru.put c "e" 5;
  Alcotest.(check bool) "then b" false (Engine.Lru.mem c "b");
  Alcotest.(check bool) "a survives both" true (Engine.Lru.mem c "a");
  Alcotest.(check int) "two evictions" 2 (Engine.Lru.evictions c);
  Alcotest.(check int) "three hits" 3 (Engine.Lru.hits c);
  Engine.Lru.clear c;
  Alcotest.(check int) "clear does not count as eviction" 2 (Engine.Lru.evictions c);
  Engine.Lru.reset_counters c;
  Alcotest.(check int) "reset zeroes evictions" 0 (Engine.Lru.evictions c)

(* ------------------------------------------------------------------ *)
(* Engine vs the sequential reference                                  *)
(* ------------------------------------------------------------------ *)

let polls () =
  ( Datasets.Polls.generate ~n_candidates:10 ~n_voters:40 ~seed:3 (),
    Ppd.Parser.parse Datasets.Polls.query_two_label )

let movielens () =
  ( Datasets.Movielens.generate ~n_movies:10 ~n_components:4 ~seed:5 (),
    Ppd.Parser.parse Datasets.Movielens.query_fig14 )

(* The crowdrank query compiles to General-kind unions on which the exact
   solvers blow up; everything touching it below runs the cheap MIS-AMP
   estimator, like the paper's Figure 15. *)
let crowdrank () =
  ( Datasets.Crowdrank.generate ~n_workers:200 ~seed:5 (),
    Ppd.Parser.parse Datasets.Crowdrank.query_fig15 )

let crowdrank_solver =
  Hardq.Solver.Approx
    (Hardq.Solver.Mis_lite { d = 2; n_per = 40; compensate = true })

let check_matches_eval name (db, q) =
  let solver = Hardq.Solver.Exact `Auto in
  let ref_sessions = Ppd.Solve.per_session ~solver db q (Util.Rng.make 1) in
  let ref_bool = Ppd.Solve.boolean_prob ~solver db q (Util.Rng.make 1) in
  let ref_count = Ppd.Solve.count_sessions ~solver db q (Util.Rng.make 1) in
  List.iter
    (fun jobs ->
      Engine.with_engine Engine.Config.(default |> with_jobs jobs) (fun engine ->
          let eval task =
            Engine.eval engine (Engine.Request.make ~task ~solver db q)
          in
          let b = eval Engine.Request.Boolean in
          check_float_eq
            (Printf.sprintf "%s: Boolean, jobs=%d" name jobs)
            ref_bool
            (Engine.Response.answer_float b);
          List.iter2
            (fun (_, expected) (_, actual) ->
              check_float_eq
                (Printf.sprintf "%s: per-session, jobs=%d" name jobs)
                expected actual)
            ref_sessions b.Engine.Response.per_session;
          Alcotest.(check (list (list string)))
            (Printf.sprintf "%s: session order, jobs=%d" name jobs)
            (List.map
               (fun (l : Ppd.Value.t list) -> List.map Ppd.Value.to_string l)
               (session_keys ref_sessions))
            (List.map
               (fun l -> List.map Ppd.Value.to_string l)
               (session_keys b.Engine.Response.per_session));
          let c = eval Engine.Request.Count in
          check_float_eq
            (Printf.sprintf "%s: Count, jobs=%d" name jobs)
            ref_count
            (Engine.Response.answer_float c)))
    [ 1; 4 ]

let unit_engine_matches_eval_polls () = check_matches_eval "polls" (polls ())

let unit_engine_matches_eval_movielens () =
  check_matches_eval "movielens" (movielens ())

let unit_engine_topk_matches_eval () =
  let db, q = polls () in
  let solver = Hardq.Solver.Exact `Auto in
  List.iter
    (fun strategy ->
      let reference =
        Ppd.Solve.top_k ~solver ~strategy ~k:5 db q (Util.Rng.make 1)
      in
      List.iter
        (fun jobs ->
          Engine.with_engine Engine.Config.(default |> with_jobs jobs) (fun engine ->
              let resp =
                Engine.eval engine
                  (Engine.Request.make
                     ~task:(Engine.Request.Top_k { k = 5; strategy })
                     ~solver db q)
              in
              let got = Engine.Response.ranked resp in
              Alcotest.(check int)
                "ranking length"
                (List.length reference.Ppd.Solve.results)
                (List.length got);
              List.iter2
                (fun (rs, rp) (gs, gp) ->
                  check_float_eq "top-k probability" rp gp;
                  Alcotest.(check (list string))
                    "top-k session"
                    (Array.to_list
                       (Array.map Ppd.Value.to_string (rs : Ppd.Database.session).Ppd.Database.key))
                    (Array.to_list
                       (Array.map Ppd.Value.to_string (gs : Ppd.Database.session).Ppd.Database.key)))
                reference.Ppd.Solve.results got))
        [ 1; 4 ])
    [ `Naive; `Edges 1; `Edges 2 ]

let unit_engine_parallel_deterministic_approx () =
  (* Approximate solvers consume randomness; the per-request RNG splits are
     assigned sequentially in request order, so pool size must not change a
     single bit of the output. *)
  let db, q = crowdrank () in
  let solver = crowdrank_solver in
  let eval jobs =
    Engine.with_engine Engine.Config.(default |> with_jobs jobs) (fun engine ->
        let resp =
          Engine.eval engine (Engine.Request.make ~solver ~seed:11 db q)
        in
        List.map snd resp.Engine.Response.per_session)
  in
  let seq = eval 1 and par = eval 4 in
  List.iteri
    (fun i (a, b) -> check_float_eq (Printf.sprintf "session %d" i) a b)
    (List.combine seq par)

(* ------------------------------------------------------------------ *)
(* Cache accounting                                                    *)
(* ------------------------------------------------------------------ *)

let unit_engine_cache_accounting () =
  (* CrowdRank workers share a handful of Mallows models, so the distinct
     request count collapses far below the session count; a second
     evaluation on the same engine is answered entirely by the cache. *)
  let db, q = crowdrank () in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let req = Engine.Request.make ~solver:crowdrank_solver db q in
      let first = Engine.eval engine req in
      let s1 = first.Engine.Response.stats in
      Alcotest.(check bool)
        "grouping collapses requests" true
        (s1.Engine.Response.distinct < s1.Engine.Response.sessions / 2);
      Alcotest.(check int)
        "cold run: everything is a miss" s1.Engine.Response.distinct
        s1.Engine.Response.cache_misses;
      Alcotest.(check int) "cold run: no hits" 0 s1.Engine.Response.cache_hits;
      Alcotest.(check int)
        "one solver call per distinct request" s1.Engine.Response.distinct
        s1.Engine.Response.solver_calls;
      let second = Engine.eval engine req in
      let s2 = second.Engine.Response.stats in
      Alcotest.(check int) "warm run: no misses" 0 s2.Engine.Response.cache_misses;
      Alcotest.(check int)
        "warm run: every distinct request hits" s2.Engine.Response.distinct
        s2.Engine.Response.cache_hits;
      Alcotest.(check int) "warm run: no solver calls" 0 s2.Engine.Response.solver_calls;
      check_float_eq "warm answer identical"
        (Engine.Response.answer_float first)
        (Engine.Response.answer_float second);
      Alcotest.(check int)
        "engine-lifetime counters add up"
        (s1.Engine.Response.cache_hits + s2.Engine.Response.cache_hits)
        (Engine.cache_hits engine))

let unit_engine_cache_disabled () =
  let db, q = crowdrank () in
  Engine.with_engine
    Engine.Config.(
      default |> with_jobs 1 |> with_answer_capacity 0 |> with_term_capacity 0)
    (fun engine ->
      let req = Engine.Request.make ~solver:crowdrank_solver db q in
      let r1 = Engine.eval engine req in
      let r2 = Engine.eval engine req in
      Alcotest.(check int)
        "no cache: second run misses again"
        r1.Engine.Response.stats.Engine.Response.cache_misses
        r2.Engine.Response.stats.Engine.Response.cache_misses;
      Alcotest.(check int) "no hits ever" 0 (Engine.cache_hits engine);
      check_float_eq "same answer regardless"
        (Engine.Response.answer_float r1)
        (Engine.Response.answer_float r2))

(* ------------------------------------------------------------------ *)
(* Cache-key integrity                                                 *)
(* ------------------------------------------------------------------ *)

(* The cache is content-addressed on (solver, center, phi, labeling,
   union structure). These tests feed one engine pairs of requests that
   are adversarially close — off by one ulp of phi, or structurally
   different unions over the same items — and assert the second request
   never aliases the first's entry: an aliased key would answer from the
   cache (hits > 0, no solver call) with the wrong probability. *)

let tiny_items names =
  Ppd.Relation.make ~name:"C" ~attrs:[ "item" ]
    (List.map (fun n -> [ Ppd.Value.Str n ]) names)

let tiny_db ?(phi = [ 0.5; 0.3 ]) () =
  let sessions =
    List.mapi
      (fun i phi ->
        {
          Ppd.Database.key = [| Ppd.Value.Str (Printf.sprintf "s%d" i) |];
          model =
            Rim.Mallows.make
              ~center:
                (Prefs.Ranking.of_array
                   (Util.Rng.permutation (Util.Rng.make (i + 1)) 3))
              ~phi;
        })
      phi
  in
  Ppd.Database.make ~items:(tiny_items [ "a"; "b"; "c" ])
    ~preferences:[ Ppd.Database.p_relation ~name:"P" ~key_attrs:[ "sid" ] sessions ]
    ()

let fresh_misses (resp : Engine.Response.t) =
  let s = resp.Engine.Response.stats in
  ( s.Engine.Response.cache_hits,
    s.Engine.Response.cache_misses,
    s.Engine.Response.solver_calls )

let unit_cache_key_phi_ulp () =
  (* Two databases identical except each session's phi moved by one ulp.
     They stringify differently (%.17g) and must occupy distinct cache
     entries. *)
  let q = Ppd.Parser.parse "Q() :- P(_; \"a\"; \"b\")." in
  let db1 = tiny_db () in
  let db2 = tiny_db ~phi:[ Float.succ 0.5; Float.pred 0.3 ] () in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let r1 = Engine.eval engine (Engine.Request.make db1 q) in
      let h1, m1, c1 = fresh_misses r1 in
      Alcotest.(check int) "cold run has no hits" 0 h1;
      Alcotest.(check bool) "cold run solves" true (m1 > 0 && c1 = m1);
      let r2 = Engine.eval engine (Engine.Request.make db2 q) in
      let h2, m2, c2 = fresh_misses r2 in
      Alcotest.(check int) "phi ulp twin does not alias" 0 h2;
      Alcotest.(check bool) "phi ulp twin is re-solved" true (m2 > 0 && c2 = m2))

let unit_cache_key_union_structure () =
  (* A two-edge conjunction a>b>c and the single edge a>c relate the same
     items; a key that hashed, say, the participating item set would
     collapse them. The chain implies the edge, so its probability can
     only be smaller — which the aliased cache would get wrong. *)
  let chain = Ppd.Parser.parse "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\")." in
  let edge = Ppd.Parser.parse "Q() :- P(_; \"a\"; \"c\")." in
  let db = tiny_db () in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let r1 = Engine.eval engine (Engine.Request.make db chain) in
      let r2 = Engine.eval engine (Engine.Request.make db edge) in
      let h2, m2, _ = fresh_misses r2 in
      Alcotest.(check int) "different union structure does not alias" 0 h2;
      Alcotest.(check bool) "edge query re-solved" true (m2 > 0);
      let p_chain = Engine.Response.answer_float r1
      and p_edge = Engine.Response.answer_float r2 in
      if p_chain > p_edge +. 1e-9 then
        Alcotest.failf "Pr(a>b>c)=%.17g exceeds Pr(a>c)=%.17g" p_chain p_edge)

let unit_cache_key_solver_and_rerun () =
  (* The solver is part of the key: same request under `Auto and
     `General must not alias (their answers agree to 1e-9, but bitwise
     caching across solvers would silently launder one into the other),
     while an exact rerun under the same solver must hit every entry. *)
  let q = Ppd.Parser.parse "Q() :- P(_; \"a\"; \"b\")." in
  let db = tiny_db () in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let auto =
        Engine.eval engine
          (Engine.Request.make ~solver:(Hardq.Solver.Exact `Auto) db q)
      in
      let general =
        Engine.eval engine
          (Engine.Request.make ~solver:(Hardq.Solver.Exact `General) db q)
      in
      let hg, mg, _ = fresh_misses general in
      Alcotest.(check int) "other solver does not alias" 0 hg;
      Alcotest.(check bool) "other solver re-solved" true (mg > 0);
      Helpers.check_close ~eps:1e-9 "solvers agree"
        (Engine.Response.answer_float auto)
        (Engine.Response.answer_float general);
      let again =
        Engine.eval engine
          (Engine.Request.make ~solver:(Hardq.Solver.Exact `Auto) db q)
      in
      let ha, ma, ca = fresh_misses again in
      Alcotest.(check bool) "identical request hits" true (ha > 0);
      Alcotest.(check int) "identical request never re-solves" 0 (ma + ca);
      check_float_eq "hit returns the identical bits"
        (Engine.Response.answer_float auto)
        (Engine.Response.answer_float again))

(* ------------------------------------------------------------------ *)
(* Budget path                                                         *)
(* ------------------------------------------------------------------ *)

(* A tiny positive CPU budget must surface [Util.Timer.Out_of_time] from
   inside the pool without wedging a worker domain or caching partial
   results: the engine stays reusable and the cache keeps only what
   complete evaluations put there. *)
let unit_engine_budget_exhaustion_recoverable () =
  let db = Datasets.Polls.generate ~n_candidates:16 ~n_voters:6 ~seed:21 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  Engine.with_engine Engine.Config.(default |> with_jobs 2) (fun engine ->
      (* Prime the cache with an unbudgeted evaluation. *)
      let two_label = Hardq.Solver.Exact `Two_label in
      let ok = Engine.eval engine (Engine.Request.make ~solver:two_label db q) in
      let len0 = Engine.cache_length engine in
      Alcotest.(check bool) "cache primed" true (len0 > 0);
      (* The solver is part of the cache key, so a different solver cannot
         be answered from the cache; its m=16 DP trips a 0.1ms budget. *)
      let starved =
        Engine.Request.make ~solver:(Hardq.Solver.Exact `Bipartite)
          ~budget:1e-4 db q
      in
      (match Engine.eval engine starved with
      | _ -> Alcotest.fail "expected Out_of_time"
      | exception Util.Timer.Out_of_time -> ());
      Alcotest.(check int)
        "no partial results cached" len0
        (Engine.cache_length engine);
      (* Both the pool and the cache survive: a warm rerun of the primed
         request is answered without a single solver call. *)
      let again = Engine.eval engine (Engine.Request.make ~solver:two_label db q) in
      check_float_eq "engine reusable, same answer"
        (Engine.Response.answer_float ok)
        (Engine.Response.answer_float again);
      Alcotest.(check int)
        "warm rerun: no misses" 0
        again.Engine.Response.stats.Engine.Response.cache_misses;
      Alcotest.(check int)
        "warm rerun: no solver calls" 0
        again.Engine.Response.stats.Engine.Response.solver_calls)

(* ------------------------------------------------------------------ *)
(* Counter consistency across domains                                  *)
(* ------------------------------------------------------------------ *)

(* CrowdRank sessions collapse to a handful of distinct keys, and with
   jobs=4 their solves run on several domains at once. Cache bookkeeping
   stays on the coordinator, so the counters must add up exactly no matter
   how the work was spread. *)
let unit_engine_counters_consistent_across_domains () =
  let db, q = crowdrank () in
  Engine.with_engine Engine.Config.(default |> with_jobs 4) (fun engine ->
      let req = Engine.Request.make ~solver:crowdrank_solver db q in
      let s1 = (Engine.eval engine req).Engine.Response.stats in
      Alcotest.(check int)
        "hits + misses = distinct"
        s1.Engine.Response.distinct
        (s1.Engine.Response.cache_hits + s1.Engine.Response.cache_misses);
      Alcotest.(check int)
        "one solver call per miss" s1.Engine.Response.cache_misses
        s1.Engine.Response.solver_calls;
      let s2 = (Engine.eval engine req).Engine.Response.stats in
      Alcotest.(check int)
        "same key from several domains: every hit counted once"
        s2.Engine.Response.distinct s2.Engine.Response.cache_hits;
      Alcotest.(check int)
        "engine-lifetime hits = sum of per-eval hits"
        (s1.Engine.Response.cache_hits + s2.Engine.Response.cache_hits)
        (Engine.cache_hits engine);
      Alcotest.(check int)
        "engine-lifetime misses = sum of per-eval misses"
        (s1.Engine.Response.cache_misses + s2.Engine.Response.cache_misses)
        (Engine.cache_misses engine))

(* ------------------------------------------------------------------ *)
(* Solver names                                                        *)
(* ------------------------------------------------------------------ *)

let unit_solver_name_round_trip () =
  let all =
    Hardq.Solver.
      [
        Exact `Auto;
        Exact `Two_label;
        Exact `Bipartite;
        Exact `Bipartite_basic;
        Exact `General;
        Exact `Brute;
        Approx (Rejection { n = 50_000 });
        Approx (Mis_lite { d = 10; n_per = 1000; compensate = true });
        Approx (Mis_adaptive { n_per = 1000; delta_d = 5; d_max = 50; tol = 0.05 });
        Approx (Mis_full { n_per = 2000 });
      ]
  in
  List.iter
    (fun s ->
      let name = Hardq.Solver.to_string s in
      match Hardq.Solver.of_string name with
      | Ok s' ->
          if s' <> s then Alcotest.failf "%s does not round-trip" name
      | Error msg -> Alcotest.failf "%s rejected: %s" name msg)
    all;
  (match Hardq.Solver.of_string "  MIS-Amp-Lite " with
  | Ok (Hardq.Solver.Approx (Hardq.Solver.Mis_lite _)) -> ()
  | _ -> Alcotest.fail "case/space-insensitive parse failed");
  match Hardq.Solver.of_string "no-such-solver" with
  | Error msg ->
      (* The failure message must enumerate every valid name — it is the
         only discoverability the wire protocol offers. *)
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      List.iter
        (fun n ->
          if not (contains msg n) then
            Alcotest.failf "error message omits %S: %s" n msg)
        Hardq.Solver.valid_names
  | Ok _ -> Alcotest.fail "expected an error for an unknown name"

(* ------------------------------------------------------------------ *)
(* Shutdown                                                            *)
(* ------------------------------------------------------------------ *)

let unit_engine_shutdown_idempotent () =
  let engine = Engine.create Engine.Config.(default |> with_jobs 2) in
  Alcotest.(check bool) "fresh engine not stopped" false (Engine.stopped engine);
  Engine.shutdown engine;
  Alcotest.(check bool) "stopped after shutdown" true (Engine.stopped engine);
  (* Idempotent: repeated shutdowns are no-ops, not errors. *)
  Engine.shutdown engine;
  Engine.shutdown engine;
  Alcotest.(check bool) "still stopped" true (Engine.stopped engine)

let unit_engine_eval_after_shutdown_raises () =
  let db, q = polls () in
  let engine = Engine.create Engine.Config.(default |> with_jobs 1) in
  let req = Engine.Request.make db q in
  ignore (Engine.eval engine req);
  Engine.shutdown engine;
  match Engine.eval engine req with
  | _ -> Alcotest.fail "expected Engine.Stopped"
  | exception Engine.Stopped -> ()

(* ------------------------------------------------------------------ *)
(* Store: the shared two-tier building block                           *)
(* ------------------------------------------------------------------ *)

let unit_store_claim_publish_cycle () =
  let st = Engine.Store.create ~capacity:4 in
  (match Engine.Store.claim st "k" with
  | Engine.Store.Owner -> ()
  | _ -> Alcotest.fail "first claim must own");
  (match Engine.Store.claim st "k" with
  | Engine.Store.Busy -> ()
  | _ -> Alcotest.fail "claim while in flight must be Busy");
  Engine.Store.publish st "k" 0.25;
  (match Engine.Store.claim st "k" with
  | Engine.Store.Hit p -> check_float_eq "published value" 0.25 p
  | _ -> Alcotest.fail "claim after publish must hit");
  Alcotest.(check (option (float 0.))) "find_opt sees it" (Some 0.25)
    (Engine.Store.find_opt st "k");
  Alcotest.(check (option (float 0.))) "await returns it immediately" (Some 0.25)
    (Engine.Store.await st "k");
  Alcotest.(check int) "one entry" 1 (Engine.Store.length st)

let unit_store_abandon_reopens_ownership () =
  let st = Engine.Store.create ~capacity:4 in
  (match Engine.Store.claim st "k" with
  | Engine.Store.Owner -> ()
  | _ -> Alcotest.fail "first claim must own");
  Engine.Store.abandon st "k";
  (* The abandoned key is solvable again — the takeover path. *)
  (match Engine.Store.claim st "k" with
  | Engine.Store.Owner -> ()
  | _ -> Alcotest.fail "claim after abandon must own again");
  Alcotest.(check (option (float 0.)))
    "await on an abandoned unpublished key returns None" None
    (let waiter = Thread.create (fun () -> Engine.Store.await st "gone") () in
     Thread.join waiter;
     Engine.Store.abandon st "k";
     Engine.Store.await st "k")

let unit_store_await_blocks_until_publish () =
  let st = Engine.Store.create ~capacity:4 in
  (match Engine.Store.claim st "k" with
  | Engine.Store.Owner -> ()
  | _ -> Alcotest.fail "claim");
  let got = ref None in
  let waiter = Thread.create (fun () -> got := Engine.Store.await st "k") () in
  Thread.delay 0.02;
  Engine.Store.publish st "k" 0.75;
  Thread.join waiter;
  Alcotest.(check (option (float 0.))) "waiter woke with the value" (Some 0.75)
    !got

(* ------------------------------------------------------------------ *)
(* Cross-request reuse: single flight and the term tier                *)
(* ------------------------------------------------------------------ *)

(* N threads fire the same request at one engine concurrently. The
   single-flight invariant: across all responses, every distinct
   sub-problem is SOLVED exactly once — misses sum to the distinct count
   — and every other resolution is a hit or an in-flight join. All
   answers are bit-identical to a cold solo solve. *)
let unit_engine_single_flight_dedup () =
  let db, q = crowdrank () in
  let req = Engine.Request.make ~solver:crowdrank_solver db q in
  let reference =
    Engine.with_engine
      Engine.Config.(
        default |> with_jobs 1 |> with_answer_capacity 0 |> with_term_capacity 0)
      (fun e -> Engine.Response.answer_float (Engine.eval e req))
  in
  Engine.with_engine Engine.Config.(default |> with_jobs 2) (fun engine ->
      let n = 4 in
      let results = Array.make n None in
      let threads =
        List.init n (fun i ->
            Thread.create (fun () -> results.(i) <- Some (Engine.eval engine req)) ())
      in
      List.iter Thread.join threads;
      let resps =
        Array.to_list results
        |> List.map (function Some r -> r | None -> Alcotest.fail "no response")
      in
      let distinct =
        match resps with
        | r :: _ -> r.Engine.Response.stats.Engine.Response.distinct
        | [] -> assert false
      in
      List.iter
        (fun (r : Engine.Response.t) ->
          check_float_eq "concurrent answer bit-identical" reference
            (Engine.Response.answer_float r);
          let s = r.Engine.Response.stats in
          Alcotest.(check int) "every sub-problem accounted"
            s.Engine.Response.distinct
            (s.Engine.Response.cache_hits + s.Engine.Response.cache_misses
           + s.Engine.Response.sf_joins))
        resps;
      let total_misses =
        List.fold_left
          (fun acc (r : Engine.Response.t) ->
            acc + r.Engine.Response.stats.Engine.Response.cache_misses)
          0 resps
      in
      Alcotest.(check int) "each distinct key solved exactly once across threads"
        distinct total_misses)

(* With the answer tier shrunk to nothing, repeat evaluations re-derive
   every sub-answer — but the term tier still carries the solved IE
   conjunctions across, and reuse is bitwise invisible. *)
let unit_engine_term_tier_reuse () =
  let db, q = polls () in
  let solver = Hardq.Solver.Exact `General in
  let req = Engine.Request.make ~solver db q in
  let reference =
    Engine.with_engine
      Engine.Config.(default |> with_jobs 1 |> with_term_capacity 0)
      (fun e -> Engine.Response.answer_float (Engine.eval e req))
  in
  Engine.with_engine
    Engine.Config.(default |> with_jobs 1 |> with_answer_capacity 0)
    (fun engine ->
      let r1 = Engine.eval engine req in
      let r2 = Engine.eval engine req in
      check_float_eq "cold answer matches term-tier-off engine" reference
        (Engine.Response.answer_float r1);
      check_float_eq "warm answer bit-identical" reference
        (Engine.Response.answer_float r2);
      let s1 = r1.Engine.Response.stats and s2 = r2.Engine.Response.stats in
      Alcotest.(check bool)
        "cold run populates the term tier" true
        (s1.Engine.Response.term_misses > 0);
      Alcotest.(check int) "warm run solves no terms" 0
        s2.Engine.Response.term_misses;
      Alcotest.(check int) "warm run replays every term"
        s1.Engine.Response.term_misses s2.Engine.Response.term_hits;
      Alcotest.(check int) "answer tier held nothing" 0
        s2.Engine.Response.cache_hits)

let suites =
  [
    ( "engine.pool",
      [
        tc "covers every index exactly once" `Quick unit_pool_covers_every_index;
        tc "propagates worker exceptions" `Quick unit_pool_propagates_exceptions;
        tc "inline after shutdown" `Quick unit_pool_inline_after_shutdown;
      ] );
    ( "engine.lru",
      [
        tc "eviction, promotion and counters" `Quick unit_lru_eviction_and_promotion;
        tc "rejects negative capacity" `Quick unit_lru_rejects_negative_capacity;
        tc "capacity 0 stores nothing" `Quick unit_lru_capacity_zero;
        tc "capacity 1 thrashes correctly" `Quick unit_lru_capacity_one;
        tc "eviction order follows interleaved hits" `Quick
          unit_lru_eviction_order_interleaved_hits;
      ] );
    ( "engine.eval",
      [
        tc "matches Eval on polls (jobs=1,4)" `Quick unit_engine_matches_eval_polls;
        tc "matches Eval on movielens (jobs=1,4)" `Quick
          unit_engine_matches_eval_movielens;
        tc "top-k matches Eval for every strategy" `Quick
          unit_engine_topk_matches_eval;
        tc "approx results independent of pool size" `Quick
          unit_engine_parallel_deterministic_approx;
      ] );
    ( "engine.cache",
      [
        tc "hit/miss accounting across evals" `Quick unit_engine_cache_accounting;
        tc "disabled cache never hits" `Quick unit_engine_cache_disabled;
        tc "counters consistent with jobs=4" `Quick
          unit_engine_counters_consistent_across_domains;
      ] );
    ( "engine.store",
      [
        tc "claim/publish/hit cycle" `Quick unit_store_claim_publish_cycle;
        tc "abandon reopens ownership" `Quick unit_store_abandon_reopens_ownership;
        tc "await blocks until publish" `Quick unit_store_await_blocks_until_publish;
      ] );
    ( "engine.sharing",
      [
        tc "concurrent single-flight dedup" `Quick unit_engine_single_flight_dedup;
        tc "term tier reuses IE conjunctions bitwise" `Quick
          unit_engine_term_tier_reuse;
      ] );
    ( "engine.cache-keys",
      [
        tc "one-ulp phi twins stay distinct" `Quick unit_cache_key_phi_ulp;
        tc "union structure is part of the key" `Quick
          unit_cache_key_union_structure;
        tc "solver in key; exact reruns hit bitwise" `Quick
          unit_cache_key_solver_and_rerun;
      ] );
    ( "engine.budget",
      [
        tc "Out_of_time surfaces; engine and cache survive" `Quick
          unit_engine_budget_exhaustion_recoverable;
      ] );
    ( "engine.solver-names",
      [ tc "of_string/to_string round-trip" `Quick unit_solver_name_round_trip ] );
    ( "engine.shutdown",
      [
        tc "shutdown is idempotent" `Quick unit_engine_shutdown_idempotent;
        tc "eval after shutdown raises Stopped" `Quick
          unit_engine_eval_after_shutdown_raises;
      ] );
  ]

(* The sharded session store: consistent-hash placement stability,
   cross-shard-count bit-identity against the sequential reference
   (including skewed and empty shards), typed partial-failure accounting
   under injected faults — the coordinator must degrade, never crash,
   hang, or present a wrong answer as exact — and the engine-level
   shard routing. *)

let tc = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let polls () =
  ( Datasets.Polls.generate ~n_candidates:6 ~n_voters:12 ~seed:5 (),
    Ppd.Parser.parse Datasets.Polls.query_two_label )

(* What a caller hands the coordinator: the exact solver and the k-edge
   upper bound per session, run inline, plus the request deadline. *)
type job = {
  prob : Shard.prob;
  bound : n_edges:int -> Shard.prob;
  deadline : float option;
}

let job_of ?deadline ?(budget = 2.) db =
  let lab = Ppd.Database.labeling db in
  {
    prob =
      (fun s u ->
        Hardq.Solver.prob ~budget:(Util.Timer.budget budget) ~kernel:Hardq.Kernel.Flat
          Hardq.Solver.default_exact s.Ppd.Database.model lab u (Util.Rng.make 42));
    bound =
      (fun ~n_edges s u ->
        Hardq.Upper_bound.upper_bound ~k:n_edges
          (Rim.Mallows.to_rim s.Ppd.Database.model)
          lab u);
    deadline;
  }

let compile db q =
  let compiled = Ppd.Compile.compile db q in
  ( Ppd.Database.p_name compiled.Ppd.Compile.p_rel,
    Array.of_list compiled.Ppd.Compile.requests )

let with_cluster ?assign shards f = f (Shard.create ?assign ~shards ())

(* A partition's batch, session by session. *)
let batch_of (f : Shard.prob) : Shard.batch =
  Array.map (fun { Ppd.Compile.session; union } ->
      match union with None -> 0. | Some u -> f session u)

let probs t job ~p_rel requests =
  Shard.probs t ?deadline:job.deadline
    ~batch:(batch_of job.prob) ~p_rel requests

(* The sequential reference's folds, over the merged global order. *)
let count t job ~p_rel requests =
  let per_session, s = probs t job ~p_rel requests in
  (List.fold_left (fun acc (_, p) -> acc +. p) 0. per_session, per_session, s)

let boolean t job ~p_rel requests =
  let per_session, s = probs t job ~p_rel requests in
  (1. -. List.fold_left (fun acc (_, p) -> acc *. (1. -. p)) 1. per_session, per_session, s)

let rank k l =
  List.stable_sort (fun (_, a) (_, b) -> compare b a) l |> List.filteri (fun i _ -> i < k)

let top_k t job ~k ~strategy ~p_rel requests =
  let evaluated, s, _ =
    Shard.top_k t ?deadline:job.deadline
      ~batch:(batch_of job.prob)
      ~bounds:(fun ~n_edges -> batch_of (job.bound ~n_edges))
      ~prob:job.prob ~k ~strategy ~p_rel requests
  in
  (rank k evaluated, evaluated, s)

let count_ref db q = Ppd.Solve.count_sessions ~group:true db q (Util.Rng.make 42)
let bool_ref db q = Ppd.Solve.boolean_prob ~group:true db q (Util.Rng.make 42)

let topk_ref ~k db q =
  (Ppd.Solve.top_k ~strategy:`Naive ~k db q (Util.Rng.make 42)).Ppd.Solve.results

let check_exact_summary what (s : Shard.summary) =
  if not s.Shard.exact then
    Alcotest.failf "%s: healthy cluster degraded (%d answered, %d timed out, %d errored)"
      what s.Shard.answered s.Shard.timed_out s.Shard.errored;
  if s.Shard.timed_out + s.Shard.errored > 0 then
    Alcotest.failf "%s: healthy cluster reported failures" what

let check_ranked what expected actual =
  if List.length expected <> List.length actual then
    Alcotest.failf "%s: ranked %d sessions, reference %d" what
      (List.length actual) (List.length expected);
  List.iter2
    (fun ((s : Ppd.Database.session), p) ((s' : Ppd.Database.session), p') ->
      if p <> p' then
        Alcotest.failf "%s: rank probability %.17g, reference %.17g" what p p';
      if s.Ppd.Database.key <> s'.Ppd.Database.key then
        Alcotest.failf "%s: ranked a different session at p=%.17g" what p)
    actual expected

(* ------------------------------------------------------------------ *)
(* Consistent hashing                                                  *)
(* ------------------------------------------------------------------ *)

let keys n = List.init n (fun i -> Printf.sprintf "polls\x00voter%04d" i)

let unit_chash_stable_assignment () =
  let ks = keys 200 in
  let a = Shard.Chash.create 4 and b = Shard.Chash.create 4 in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "placement of %S" k)
        (Shard.Chash.shard_of a k) (Shard.Chash.shard_of b k))
    ks;
  Alcotest.(check string) "same digest from independent rings"
    (Shard.Chash.assignment_digest a ks)
    (Shard.Chash.assignment_digest b ks);
  (* Pin the digest itself: placement is a pure function of the key
     strings and the shard count, so this literal only changes if the
     hash or the ring layout changes — which silently remaps every
     cached placement and must be a conscious decision. *)
  Alcotest.(check string) "pinned assignment digest"
    "3ee3d8f1b079ff58"
    (Shard.Chash.assignment_digest a ks)

let unit_chash_balance () =
  let ring = Shard.Chash.create 4 in
  let counts = Array.make 4 0 in
  List.iter
    (fun k ->
      let s = Shard.Chash.shard_of ring k in
      counts.(s) <- counts.(s) + 1)
    (keys 2000);
  Array.iteri
    (fun i c ->
      if c < 100 then
        Alcotest.failf "shard %d owns only %d of 2000 keys (expected ~500)" i c)
    counts

let unit_chash_remap_fraction () =
  let ks = keys 2000 in
  let four = Shard.Chash.create 4 and five = Shard.Chash.create 5 in
  let moved =
    List.length
      (List.filter
         (fun k -> Shard.Chash.shard_of four k <> Shard.Chash.shard_of five k)
         ks)
  in
  let fraction = float_of_int moved /. 2000. in
  (* Growing 4 -> 5 shards should remap about 1/5 of the keys; a modulo
     hash would remap ~4/5. Accept a generous band around 0.2. *)
  if fraction < 0.05 || fraction > 0.45 then
    Alcotest.failf "4 -> 5 shards remapped %.3f of keys (expected ~0.20)" fraction;
  (* Keys that stayed must still be in range for the smaller ring. *)
  List.iter
    (fun k ->
      let s = Shard.Chash.shard_of five k in
      if s < 0 || s >= 5 then Alcotest.failf "shard id %d out of range" s)
    ks

(* ------------------------------------------------------------------ *)
(* Cross-shard-count bit-identity (QCheck over generated PPDs)         *)
(* ------------------------------------------------------------------ *)

let gen_params = { Qa.Gen.default with Qa.Gen.max_sessions = 10 }

let shard_counts = [ 1; 2; 4; 7 ]

(* Run [f] on a generated case, skipping cases outside the compiler's
   supported envelope — those are not verdicts either way. *)
let on_case seed f =
  let case = Qa.Gen.case ~params:gen_params (Util.Rng.make seed) in
  let { Ppd.Case.db; query; _ } = case in
  match compile db query with
  | p_rel, requests -> f db query p_rel requests; true
  | exception Ppd.Compile.Unsupported _ -> true
  | exception Ppd.Compile.Grounding_too_large _ -> true

let fuzz_count_boolean_identity =
  Helpers.qtest ~count:12 "count/boolean bit-identical at shards {1,2,4,7}"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      on_case seed (fun db query p_rel requests ->
          let c_ref = count_ref db query and b_ref = bool_ref db query in
          let job = job_of db in
          List.iter
            (fun n ->
              with_cluster n (fun t ->
                  let c, per_session, s = count t job ~p_rel requests in
                  check_exact_summary (Printf.sprintf "count shards=%d" n) s;
                  if c <> c_ref then
                    Alcotest.failf "count shards=%d: %.17g vs reference %.17g" n
                      c c_ref;
                  if List.length per_session <> Array.length requests then
                    Alcotest.failf "count shards=%d: merged %d of %d sessions" n
                      (List.length per_session) (Array.length requests);
                  let b, _, s' = boolean t job ~p_rel requests in
                  check_exact_summary (Printf.sprintf "boolean shards=%d" n) s';
                  if b <> b_ref then
                    Alcotest.failf "boolean shards=%d: %.17g vs reference %.17g"
                      n b b_ref))
            shard_counts))

let fuzz_topk_identity =
  Helpers.qtest ~count:10 "top-k bit-identical at shards {1,2,4,7}, naive and 1-/2-edge"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      on_case seed (fun db query p_rel requests ->
          let k = 2 in
          let reference = topk_ref ~k db query in
          let job = job_of db in
          List.iter
            (fun n ->
              with_cluster n (fun t ->
                  List.iter
                    (fun (name, strategy) ->
                      let ranked, _, s =
                        top_k t job ~k ~strategy ~p_rel requests
                      in
                      check_exact_summary
                        (Printf.sprintf "%s shards=%d" name n)
                        s;
                      check_ranked
                        (Printf.sprintf "%s shards=%d" name n)
                        reference ranked;
                      (* Phase accounting: pruned and deep-queried shards
                         partition the phase-1 survivors holding sessions;
                         empty shards are neither. *)
                      if s.Shard.pruned_shards + s.Shard.deep_shards > n then
                        Alcotest.failf
                          "%s shards=%d: pruned %d + deep %d > shards" name n
                          s.Shard.pruned_shards s.Shard.deep_shards)
                    [ ("naive", `Naive); ("edges", `Edges 1); ("edges2", `Edges 2) ]))
            shard_counts))

(* Skew: every session on one shard of four (the rest empty), then an
   adversarial two-point split — answers must not move. *)
let unit_skewed_and_empty_shards () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let c_ref = count_ref db q in
  let reference = topk_ref ~k:3 db q in
  let job = job_of db in
  List.iter
    (fun (what, assign) ->
      with_cluster ~assign 4 (fun t ->
          let c, _, s = count t job ~p_rel requests in
          check_exact_summary what s;
          if c <> c_ref then
            Alcotest.failf "%s: count %.17g vs reference %.17g" what c c_ref;
          let ranked, _, s' =
            top_k t job ~k:3 ~strategy:(`Edges 1) ~p_rel requests
          in
          check_exact_summary what s';
          check_ranked what reference ranked))
    [
      ("all sessions on shard 2", fun _ -> 2);
      ( "two-point split 0/3",
        fun key -> if Hashtbl.hash key land 1 = 0 then 0 else 3 );
    ]

(* ------------------------------------------------------------------ *)
(* Fault injection: typed degradation, never a crash or a hang         *)
(* ------------------------------------------------------------------ *)

(* Deterministic first-seen round-robin placement, so the test knows
   exactly which sessions sit behind the faulty shard. *)
let round_robin n =
  let memo = Hashtbl.create 32 in
  fun key ->
    match Hashtbl.find_opt memo key with
    | Some s -> s
    | None ->
        let s = Hashtbl.length memo mod n in
        Hashtbl.add memo key s;
        s

let with_fault ~shard fault f =
  Shard.Inject.set ~shard fault;
  Fun.protect ~finally:Shard.Inject.reset f

let unit_error_fault_degrades_count () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let job = job_of db in
  with_cluster ~assign:(round_robin 4) 4 @@ fun t ->
  (* Healthy pass first: the same cluster and placement must be exact. *)
  let c_healthy, per_healthy, s_healthy = count t job ~p_rel requests in
  check_exact_summary "healthy pass" s_healthy;
  Alcotest.(check (float 0.)) "healthy count is the reference" (count_ref db q)
    c_healthy;
  with_fault ~shard:1 (Shard.Inject.Error "boom") @@ fun () ->
  let c, per_session, s = count t job ~p_rel requests in
  if s.Shard.exact then Alcotest.fail "errored shard still claimed exact";
  Alcotest.(check int) "one shard errored" 1 s.Shard.errored;
  Alcotest.(check int) "three shards answered" 3 s.Shard.answered;
  (match s.Shard.outcomes.(1) with
  | Shard.Errored msg -> Alcotest.(check string) "typed error carried" "boom" msg
  | _ -> Alcotest.fail "outcome of shard 1 is not Errored");
  (* The degraded count is the lower bound over the answered shards:
     exactly the healthy per-session sum minus shard 1's sessions. *)
  let expected =
    List.fold_left
      (fun acc ((sess : Ppd.Database.session), p) ->
        let key = Shard.session_key ~p_rel sess in
        if Shard.assign t key = 1 then acc else acc +. p)
      0. per_healthy
  in
  Alcotest.(check (float 0.)) "lower bound sums the answered shards" expected c;
  if List.length per_session >= List.length per_healthy then
    Alcotest.fail "errored shard's sessions still in the merged list"

let unit_drop_fault_times_out_without_hanging () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let job = job_of db in
  with_cluster ~assign:(round_robin 2) 2 @@ fun t ->
  with_fault ~shard:0 Shard.Inject.Drop @@ fun () ->
  let t0 = Util.Timer.wall () in
  let _, _, s = count t job ~p_rel requests in
  let elapsed = Util.Timer.wall () -. t0 in
  if elapsed > 5. then Alcotest.failf "gather took %.1fs (hang?)" elapsed;
  Alcotest.(check int) "dropped shard timed out" 1 s.Shard.timed_out;
  if s.Shard.exact then Alcotest.fail "dropped shard still claimed exact";
  Alcotest.(check int) "other shard answered" 1 s.Shard.answered

let unit_delay_fault_misses_deadline () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let job = job_of ~deadline:(Util.Timer.wall () +. 0.15) db in
  with_cluster ~assign:(round_robin 2) 2 @@ fun t ->
  with_fault ~shard:1 (Shard.Inject.Delay 0.6) @@ fun () ->
  let t0 = Util.Timer.wall () in
  let _, _, s = count t job ~p_rel requests in
  let elapsed = Util.Timer.wall () -. t0 in
  if elapsed > 5. then Alcotest.failf "gather took %.1fs (hang?)" elapsed;
  Alcotest.(check int) "delayed shard missed the deadline" 1 s.Shard.timed_out;
  if s.Shard.exact then Alcotest.fail "late shard still claimed exact"

let unit_topk_fault_is_best_effort () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let job = job_of db in
  with_cluster ~assign:(round_robin 2) 2 @@ fun t ->
  (* Reference over the surviving shard only, from a healthy pass. *)
  let _, per_healthy, _ = count t job ~p_rel requests in
  let survivors =
    List.filter
      (fun ((sess : Ppd.Database.session), _) ->
        Shard.assign t (Shard.session_key ~p_rel sess) = 0)
      per_healthy
  in
  with_fault ~shard:1 (Shard.Inject.Error "disk on fire") @@ fun () ->
  List.iter
    (fun (name, strategy) ->
      let ranked, _, s = top_k t job ~k:3 ~strategy ~p_rel requests in
      if s.Shard.exact then
        Alcotest.failf "%s: errored shard still claimed exact" name;
      Alcotest.(check int) (name ^ ": one shard errored") 1 s.Shard.errored;
      (* Best effort over the answered shard: ranked rows must be the
         top of the surviving sessions, never an invented answer. *)
      let expected = rank 3 survivors in
      check_ranked (name ^ ": best-effort ranking") expected ranked)
    [ ("naive", `Naive); ("edges", `Edges 1) ]

let unit_fault_cleared_recovers () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let job = job_of db in
  with_cluster ~assign:(round_robin 2) 2 @@ fun t ->
  with_fault ~shard:0 (Shard.Inject.Error "transient") (fun () ->
      let _, _, s = count t job ~p_rel requests in
      Alcotest.(check int) "fault visible" 1 s.Shard.errored);
  (* reset ran in the finally: the same cluster must now be exact. *)
  let c, _, s = count t job ~p_rel requests in
  check_exact_summary "after reset" s;
  Alcotest.(check (float 0.)) "recovered count is the reference"
    (count_ref db q) c

(* No partition answered: nothing to degrade to, so the failing shard's
   own exception surfaces — never an empty answer marked inexact. *)
let unit_no_partition_answered_raises () =
  let db, q = polls () in
  let p_rel, requests = compile db q in
  let job = job_of db in
  let expect_out_of_time what f =
    match f () with
    | _ -> Alcotest.failf "%s: returned an answer instead of Out_of_time" what
    | exception Util.Timer.Out_of_time -> ()
  in
  (with_cluster ~assign:(round_robin 2) 2 @@ fun t ->
   Shard.Inject.set ~shard:0 Shard.Inject.Drop;
   with_fault ~shard:1 Shard.Inject.Drop @@ fun () ->
   expect_out_of_time "count, every shard dropped" (fun () ->
       count t job ~p_rel requests);
   expect_out_of_time "edges top-k, every shard dropped" (fun () ->
       top_k t job ~k:3 ~strategy:(`Edges 1) ~p_rel requests));
  (* A one-shard engine is the unsharded engine: a dropped partition
     fails the request exactly like an expired deadline does. *)
  with_fault ~shard:0 Shard.Inject.Drop @@ fun () ->
  Engine.with_engine Engine.Config.default @@ fun engine ->
  expect_out_of_time "unsharded engine, partition dropped" (fun () ->
      Engine.eval engine
        (Engine.Request.make ~task:Engine.Request.Count ~budget:2. db q))

(* ------------------------------------------------------------------ *)
(* Engine-level routing                                                *)
(* ------------------------------------------------------------------ *)

let unit_engine_shard_routing () =
  let db, q = polls () in
  let eval cfg task =
    Engine.with_engine cfg (fun engine ->
        Engine.eval engine (Engine.Request.make ~task ~budget:2. ~seed:42 db q))
  in
  let unsharded =
    Engine.Config.(default |> with_answer_capacity 0 |> with_term_capacity 0)
  in
  let sharded = Engine.Config.with_shards 4 unsharded in
  (* Count: same answer, and only the sharded engine attaches a block. *)
  let r0 = eval unsharded Engine.Request.Count in
  let r4 = eval sharded Engine.Request.Count in
  Alcotest.(check (float 0.)) "count bit-identical"
    (Engine.Response.answer_float r0)
    (Engine.Response.answer_float r4);
  (match r4.Engine.Response.stats.Engine.Response.shards with
  | Some s ->
      Alcotest.(check int) "four shards" 4 s.Shard.shards;
      if not s.Shard.exact then Alcotest.fail "healthy cluster not exact"
  | None -> Alcotest.fail "sharded engine returned no shards block");
  (match r0.Engine.Response.stats.Engine.Response.shards with
  | None -> ()
  | Some _ -> Alcotest.fail "unsharded engine attached a shards block");
  (* Top-k: identical ranking through the sharded dispatch. *)
  let t0 =
    eval unsharded (Engine.Request.Top_k { k = 3; strategy = `Edges 1 })
  in
  let t4 = eval sharded (Engine.Request.Top_k { k = 3; strategy = `Edges 1 }) in
  check_ranked "engine top-k" (Engine.Response.ranked t0)
    (Engine.Response.ranked t4);
  (* Partitions share the engine's store: a repeated sharded Count is
     answered from it, bit-identically, without solving anything. *)
  Engine.with_engine Engine.Config.(default |> with_shards 2) @@ fun engine ->
  let count () =
    Engine.eval engine
      (Engine.Request.make ~task:Engine.Request.Count ~budget:2. ~seed:42 db q)
  in
  let cold = count () in
  let warm = count () in
  Alcotest.(check (float 0.)) "warm sharded count bit-identical"
    (Engine.Response.answer_float cold)
    (Engine.Response.answer_float warm);
  Alcotest.(check (float 0.)) "warm sharded count is the unsharded one"
    (Engine.Response.answer_float r0)
    (Engine.Response.answer_float warm);
  let s = warm.Engine.Response.stats in
  if s.Engine.Response.cache_hits <= 0 then
    Alcotest.failf "warm sharded count reported %d cache hits"
      s.Engine.Response.cache_hits;
  Alcotest.(check int) "warm sharded count solved nothing" 0
    s.Engine.Response.solver_calls;
  match s.Engine.Response.shards with
  | Some sh -> if not sh.Shard.exact then Alcotest.fail "warm sharded count not exact"
  | None -> Alcotest.fail "warm sharded count lost its shards block"

(* Two sessions sharing one Mallows model tie exactly at the top. The
   query is an F > M > F chain, whose 1-edge bound is loose, so the
   two-phase top-k deep-queries both tied sessions. *)
let tie_db () =
  let items =
    Ppd.Relation.make ~name:"C" ~attrs:[ "item"; "sex" ]
      (List.map
         (fun (i, sex) -> [ Ppd.Value.Str i; Ppd.Value.Str sex ])
         [ ("a", "F"); ("b", "M"); ("c", "F"); ("d", "M") ])
  in
  let shared = Rim.Mallows.make ~center:(Prefs.Ranking.of_list [ 0; 1; 2; 3 ]) ~phi:0.5 in
  let session key model = { Ppd.Database.key = [| Ppd.Value.Str key |]; model } in
  let sessions =
    [
      session "s0" (Rim.Mallows.make ~center:(Prefs.Ranking.of_list [ 1; 3; 0; 2 ]) ~phi:0.8);
      session "s1" shared;
      session "s2" shared;
      session "s3" (Rim.Mallows.make ~center:(Prefs.Ranking.of_list [ 3; 2; 1; 0 ]) ~phi:0.6);
    ]
  in
  ( Ppd.Database.make ~items
      ~preferences:[ Ppd.Database.p_relation ~name:"P" ~key_attrs:[ "sid" ] sessions ]
      (),
    Ppd.Parser.parse
      "Q() :- P(_; x; y), P(_; y; z), C(x, \"F\"), C(y, \"M\"), C(z, \"F\")." )

let unit_unsharded_topk_ties () =
  let db, q = tie_db () in
  let eval cfg task =
    Engine.with_engine cfg (fun engine ->
        Engine.eval engine (Engine.Request.make ~task ~seed:42 db q))
  in
  let unsharded =
    Engine.Config.(default |> with_answer_capacity 0 |> with_term_capacity 0)
  in
  let per_session = (eval unsharded Engine.Request.Count).Engine.Response.per_session in
  (match List.map snd per_session with
  | [ _; p1; p2; _ ] when p1 = p2 -> ()
  | _ -> Alcotest.fail "fixture: s1 and s2 do not tie");
  let top cfg strategy =
    Engine.Response.ranked (eval cfg (Engine.Request.Top_k { k = 1; strategy }))
  in
  let naive = top unsharded `Naive in
  check_ranked "naive engine vs reference" (topk_ref ~k:1 db q) naive;
  (match naive with
  | [ (s, _) ] when s.Ppd.Database.key = [| Ppd.Value.Str "s1" |] -> ()
  | _ -> Alcotest.fail "naive top-1 is not the first tied session");
  check_ranked "unsharded edges vs naive" naive (top unsharded (`Edges 1));
  check_ranked "4-shard edges vs naive" naive
    (top Engine.Config.(unsharded |> with_shards 4) (`Edges 1))

(* Plan sources are partitioned like datalog ones: bit-identical to the
   unsharded plan answer, with an exact shards block. *)
let unit_plan_sources_sharded () =
  let db, q = polls () in
  let text = Ppd.Query.to_string q in
  List.iter
    (fun prefix ->
      let plan =
        match Lang.Parser.parse (prefix ^ text) with
        | Ok ast -> Plan.compile db ast
        | Error e -> Alcotest.failf "parse: %s" (Lang.Ast.error_to_string e)
      in
      let eval shards =
        Engine.with_engine
          Engine.Config.(
            default |> with_answer_capacity 0 |> with_term_capacity 0
            |> with_shards shards)
          (fun engine -> Engine.eval engine (Engine.Request.of_plan ~budget:2. plan))
      in
      let r1 = eval 1 in
      if r1.Engine.Response.stats.Engine.Response.shards <> None then
        Alcotest.failf "%s: unsharded plan attached a shards block" prefix;
      List.iter
        (fun n ->
          let what = Printf.sprintf "%sshards=%d" prefix n in
          let rn = eval n in
          Alcotest.(check (float 0.)) (what ^ ": answer bit-identical")
            (Engine.Response.answer_float r1)
            (Engine.Response.answer_float rn);
          check_ranked what (Engine.Response.ranked r1) (Engine.Response.ranked rn);
          match rn.Engine.Response.stats.Engine.Response.shards with
          | Some s ->
              Alcotest.(check int) (what ^ ": shard count") n s.Shard.shards;
              check_exact_summary what s
          | None -> Alcotest.failf "%s: no shards block" what)
        [ 2; 4 ])
    [ "count "; "top(3) " ]

(* Shard counts below 1 are rejected, by the config and by both
   binaries' command lines. *)
let unit_config_rejects_shards_below_one () =
  List.iter
    (fun n ->
      match Engine.Config.(default |> with_shards n) with
      | _ -> Alcotest.failf "with_shards %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; -2 ]

let usage_error = Helpers.usage_error ~flag:"--shards"

let unit_cli_rejects_shards_below_one () =
  let cli = Helpers.binary "hardq_cli.exe" in
  usage_error cli [ "topk"; "--shards"; "0" ];
  usage_error cli [ "eval"; "--shards=-3" ];
  usage_error cli [ "query"; "--shards"; "0" ];
  usage_error cli [ "answers"; "--shards=-1" ]

let unit_server_rejects_shards_below_one () =
  let server = Helpers.binary "hardq_server.exe" in
  usage_error server [ "--shards"; "0" ];
  usage_error server [ "--shards=-1" ]

let suites =
  [
    ( "shard.chash",
      [
        tc "stable assignment and pinned digest" `Quick
          unit_chash_stable_assignment;
        tc "balanced placement" `Quick unit_chash_balance;
        tc "adding a shard remaps ~1/n of keys" `Quick
          unit_chash_remap_fraction;
      ] );
    ( "shard.identity",
      [
        fuzz_count_boolean_identity;
        fuzz_topk_identity;
        tc "skewed and empty shards" `Quick unit_skewed_and_empty_shards;
      ] );
    ( "shard.faults",
      [
        tc "error fault degrades count to a typed lower bound" `Quick
          unit_error_fault_degrades_count;
        tc "drop fault times out, never hangs" `Quick
          unit_drop_fault_times_out_without_hanging;
        tc "delay fault misses the deadline" `Quick
          unit_delay_fault_misses_deadline;
        tc "top-k under fault is best-effort, not wrong" `Quick
          unit_topk_fault_is_best_effort;
        tc "cleared fault recovers exactness" `Quick unit_fault_cleared_recovers;
        tc "no partition answered raises, never an empty answer" `Quick
          unit_no_partition_answered_raises;
      ] );
    ( "shard.engine",
      [
        tc "config routes through the cluster" `Quick unit_engine_shard_routing;
        tc "unsharded edges top-k ranks ties in session order" `Quick
          unit_unsharded_topk_ties;
        tc "plan sources are partitioned" `Quick unit_plan_sources_sharded;
        tc "config rejects shards < 1" `Quick unit_config_rejects_shards_below_one;
        tc "hardq_cli rejects --shards < 1" `Quick unit_cli_rejects_shards_below_one;
        tc "hardq_server rejects --shards < 1" `Quick
          unit_server_rejects_shards_below_one;
      ] );
  ]

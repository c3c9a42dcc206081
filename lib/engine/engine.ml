module Pool = Pool
module Lru = Lru
module Store = Store
module Request = Request
module Response = Response
module Reference = Ppd.Solve

module Config = struct
  type t = {
    jobs : int option;
    answer_capacity : int;
    term_capacity : int;
    batch_window : float;
    batch_max : int;
    shards : int;
  }

  let default =
    {
      jobs = None;
      answer_capacity = 8192;
      term_capacity = 4096;
      batch_window = 0.002;
      batch_max = 16;
      shards = 1;
    }

  let with_jobs jobs c = { c with jobs = Some jobs }
  let with_answer_capacity answer_capacity c = { c with answer_capacity }
  let with_term_capacity term_capacity c = { c with term_capacity }
  let with_batch_window batch_window c = { c with batch_window }
  let with_batch_max batch_max c = { c with batch_max }
  let with_shards shards c =
    if shards < 1 then
      invalid_arg "Engine.Config.with_shards: shards must be >= 1";
    { c with shards }
end

(* Content-addressed identity of one per-session inference: the solver, the
   session's Mallows parameters, the union's label projection and the
   pattern union determine the answer — plus the request seed when (and
   only when) the solver is sampler-based, since then the estimate depends
   on it. Every solver reads the labeling only through the item sets of the
   labels the union names, so the key holds exactly those: for each label
   id, in order of first use in the union structure, the ascending items
   carrying it. Label ids stay as they are in the structure, so equal keys
   are identical solver inputs within a database and across databases, and
   interning a label the union does not name leaves its keys unchanged.

   Both key types lead with a full hash of their (projection, structure)
   part. The stores hash keys with [Hashtbl.hash], which reads at most 10
   scalars, and the center ranking alone holds m of them: without the
   leading hash, keys that differ only in projection or structure share
   one bucket. The hash is a function of fields the key already holds, so
   equality is unchanged. *)
type projection = int list list (* carriers of each label, first use order *)

type shape = Prefs.Pattern.node array * (int * int) list (* nodes, edges *)

(* [Hashtbl.hash_param] over the whole (projection, structure) part. *)
let part_hash (part : projection * 'a) = Hashtbl.hash_param 64 256 part

type key =
  int (* part_hash (projection, structure) *)
  * int (* seed; 0 for exact solvers *)
  * Hardq.Solver.t
  * int array (* center ranking *)
  * float (* phi *)
  * projection
  * shape list (* union structure *)

(* Term-tier key: one inclusion-exclusion conjunction under one model and
   the conjunction's own label projection, scoped by the model parameters
   so the store can be engine-global. *)
type term_key =
  int (* part_hash (projection, shape) *)
  * int array (* center *)
  * float (* phi *)
  * projection
  * shape (* conjunction structure *)

type t = {
  pool : Pool.t;
  config : Config.t;
  answers : (key, float) Store.t;
  terms : (term_key, float) Store.t option; (* None at term capacity 0 *)
  placement : Shard.t; (* session partitions; one when unsharded *)
  batch_ids : int Atomic.t;
  obs_m : Mutex.t; (* guards the evictions-folded counters below *)
  mutable answer_evictions_folded : int;
  mutable term_evictions_folded : int;
  stopped : bool Atomic.t;
}

exception Stopped

(* Observability. Counters are engine-lifetime totals in the process-wide
   registry; per-request deltas are what [Response.stats.metrics] carries.
   [engine.cache.*] is the answer tier, [engine.cache.term.*] the shared
   conjunction-term tier. *)
let c_evals = Obs.counter "engine.evals"
let c_batches = Obs.counter "engine.batches"
let c_sessions = Obs.counter "engine.sessions"
let c_distinct = Obs.counter "engine.distinct"
let c_solver_calls = Obs.counter "engine.solver_calls"
let c_cache_hits = Obs.counter "engine.cache.hits"
let c_cache_misses = Obs.counter "engine.cache.misses"
let c_cache_evictions = Obs.counter "engine.cache.evictions"
let c_sf_joins = Obs.counter "engine.cache.single_flight_joins"
let c_term_hits = Obs.counter "engine.cache.term.hits"
let c_term_misses = Obs.counter "engine.cache.term.misses"
let c_term_evictions = Obs.counter "engine.cache.term.evictions"
let h_distinct = Obs.histogram "engine.distinct_per_eval"
let h_batch = Obs.histogram "engine.batch_size"

let create (cfg : Config.t) =
  {
    pool = Pool.create ?jobs:cfg.Config.jobs ();
    config = cfg;
    answers = Store.create ~capacity:cfg.Config.answer_capacity;
    terms =
      (if cfg.Config.term_capacity > 0 then
         Some (Store.create ~capacity:cfg.Config.term_capacity)
       else None);
    placement = Shard.create ~shards:cfg.Config.shards ();
    batch_ids = Atomic.make 0;
    obs_m = Mutex.create ();
    answer_evictions_folded = 0;
    term_evictions_folded = 0;
    stopped = Atomic.make false;
  }

let config t = t.config
let jobs t = Pool.size t.pool
let cache_hits t = Store.hits t.answers
let cache_misses t = Store.misses t.answers
let cache_length t = Store.length t.answers
let term_cache_length t = match t.terms with None -> 0 | Some c -> Store.length c

let clear_cache t =
  Store.clear t.answers;
  Option.iter Store.clear t.terms

let shutdown t = if not (Atomic.exchange t.stopped true) then Pool.shutdown t.pool
let stopped t = Atomic.get t.stopped

let with_engine cfg f =
  let t = create cfg in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let key_seed solver seed =
  match solver with Hardq.Solver.Exact _ -> 0 | Hardq.Solver.Approx _ -> seed

(* The label projection of a list of pattern shapes: walk nodes in pattern
   and index order, and take each new label's carriers from the labeling.
   The lists are the labeling's own, so keys built against one labeling
   share them physically and [compare] takes its physical-equality
   shortcut. *)
let projection lab shapes : projection =
  let rec labels seen acc = function
    | [] -> (seen, acc)
    | l :: ls ->
        if List.mem l seen then labels seen acc ls
        else labels (l :: seen) (Prefs.Labeling.items_with lab l :: acc) ls
  in
  let _, acc =
    List.fold_left
      (fun st (nodes, _) ->
        Array.fold_left (fun (seen, acc) node -> labels seen acc node) st nodes)
      ([], []) shapes
  in
  List.rev acc

let shape_of g : shape = (Prefs.Pattern.nodes g, Prefs.Pattern.edges g)

let canonical_key solver seed (s : Ppd.Database.session) (h, proj, structure) : key =
  let mal = s.Ppd.Database.model in
  ( h,
    key_seed solver seed,
    solver,
    Prefs.Ranking.to_array (Rim.Mallows.center mal),
    Rim.Mallows.phi mal,
    proj,
    structure )

(* Digest of exactly what the key holds, in key order. Used only to derive
   a sampler's RNG stream: the solve of a key must not depend on request
   order, cache warm state or labels the union does not name, or a cache
   hit could return a float a cold solve would not reproduce. Exact solves
   never read it, and neither does the leading hash. *)
let key_digest ((_, seed, solver, center, phi, proj, structure) : key) =
  let module D = Hardq.Digest in
  let h = D.solver (D.int D.empty seed) solver in
  let h = Array.fold_left D.int (D.int h (Array.length center)) center in
  let h = D.float h phi in
  let h = List.fold_left D.ints (D.int h (List.length proj)) proj in
  List.fold_left
    (fun h (nodes, edges) ->
      let h = Array.fold_left D.ints (D.int h (Array.length nodes)) nodes in
      List.fold_left
        (fun h (a, b) -> D.int (D.int h a) b)
        (D.int h (List.length edges))
        edges)
    (D.int h (List.length structure))
    structure

let take k l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go k l

let desc_by_snd l = List.stable_sort (fun (_, a) (_, b) -> compare b a) l

let n_sessions (plan : Plan.t) =
  match plan.Plan.lowered with
  | Plan.Patterns requests -> List.length requests
  | Plan.Predicates rows -> List.length rows

(* ------------------------------------------------------------------ *)
(* Step 1: grouped, single-flight, store-backed solve                  *)
(* ------------------------------------------------------------------ *)

(* Each union's part of its keys, by physical union: sessions with equal
   grounding environments share one union value (see [Ppd.Compile]). *)
module Union_memo = Hashtbl.Make (struct
  type t = Prefs.Pattern_union.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* Per-eval solve context. Tallies are atomics because term hooks fire
   on pool domains; the [unions] and [solve_cached] memos are only
   touched by the request's own thread (partitions run one after
   another). *)
type ctx = {
  solver : Hardq.Solver.t;
  seed : int;
  lab : Prefs.Labeling.t;
  unions : (int * projection * shape list) Union_memo.t;
  budget : float;
  deadline : float option;
  par : Util.Par.t;
      (* intra-query capability handed to every solver call; inline when
         the request asked for inter-session parallelism only *)
  terms : (term_key, float) Store.t option;
  answers : (key, float) Store.t;
  local : (key, float) Hashtbl.t; (* [solve_cached]'s within-eval memo *)
  hits : int Atomic.t; (* distinct requests answered by the cache *)
  misses : int Atomic.t; (* distinct requests this eval solved itself *)
  sf_joins : int Atomic.t; (* distinct requests joined from another eval *)
  term_hits : int Atomic.t;
  term_misses : int Atomic.t;
  solver_calls : int Atomic.t;
}

(* The request's plan was compiled when the request was built, and labels
   are interned during compilation: read the labeling after. Interning is
   append-only and an interned label's items never change, so a later
   label cannot move a projection this eval builds. *)
let make_ctx (t : t) (req : Request.t) =
  {
    solver = Plan.routed_solver req.Request.plan;
    seed = req.Request.seed;
    lab = Ppd.Database.labeling req.Request.plan.Plan.db;
    unions = Union_memo.create 16;
    budget = req.Request.budget;
    deadline = req.Request.deadline;
    par =
      (match req.Request.parallelism with
      | `Intra -> Pool.sharer t.pool
      | `Inter -> Util.Par.inline);
    terms = t.terms;
    answers = t.answers;
    local = Hashtbl.create 64;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    sf_joins = Atomic.make 0;
    term_hits = Atomic.make 0;
    term_misses = Atomic.make 0;
    solver_calls = Atomic.make 0;
  }

(* The key part of one union, built once per eval. *)
let union_part ctx u =
  match Union_memo.find_opt ctx.unions u with
  | Some part -> part
  | None ->
      let structure = List.map shape_of (Prefs.Pattern_union.patterns u) in
      let proj = projection ctx.lab structure in
      let part = (part_hash (proj, structure), proj, structure) in
      Union_memo.add ctx.unions u part;
      part

(* The term-tier hook handed to the general solver: scope the engine-global
   store to this session's model and each conjunction's label projection
   (built per lookup: conjunctions are fresh values). Closures run on
   whichever domain evaluates the session; the store is thread-safe and
   [Pattern_solver.prob] is deterministic, so reuse is bit-identical. *)
let term_hook ctx (s : Ppd.Database.session) =
  match ctx.terms with
  | None -> None
  | Some st ->
      let mal = s.Ppd.Database.model in
      let center = Prefs.Ranking.to_array (Rim.Mallows.center mal) in
      let phi = Rim.Mallows.phi mal in
      let tkey c =
        let shape = shape_of c in
        let proj = projection ctx.lab [ shape ] in
        (part_hash (proj, shape), center, phi, proj, shape)
      in
      Some
        {
          Hardq.Term_cache.find =
            (fun c ->
              match Store.find_opt st (tkey c) with
              | Some p ->
                  Atomic.incr ctx.term_hits;
                  Obs.Counter.incr c_term_hits;
                  Some p
              | None ->
                  Atomic.incr ctx.term_misses;
                  Obs.Counter.incr c_term_misses;
                  None);
          store = (fun c p -> Store.put st (tkey c) p);
        }

let check_deadline ctx =
  match ctx.deadline with
  | Some d when Util.Timer.wall () > d -> raise Util.Timer.Out_of_time
  | _ -> ()

(* The RNG of one sub-problem is a pure function of its canonical content
   (via a digest) and the request seed — never of request order or cache
   state, so warm and cold runs at any store capacity draw identical
   streams. *)
let job_rng ctx digest =
  Util.Rng.derive ctx.seed (Hardq.Digest.to_int digest)

(* What exact solvers get for an RNG: they never draw from it, so no key
   of theirs pays for a digest. *)
let exact_rng = Util.Rng.make 0

let solve_one ctx key (s : Ppd.Database.session) union =
  (* The wall-clock guard between invocations: the per-invocation CPU
     budget cannot bound a request made of many small solver calls. *)
  check_deadline ctx;
  let budget =
    if ctx.budget > 0. then Some (Util.Timer.budget ctx.budget) else None
  in
  let rng =
    match ctx.solver with
    | Hardq.Solver.Exact _ -> exact_rng
    | Hardq.Solver.Approx _ -> job_rng ctx (key_digest key)
  in
  Hardq.Solver.prob ?budget ~par:ctx.par
    ?cache:(term_hook ctx s) ctx.solver s.Ppd.Database.model ctx.lab union rng

(* Solve a key this eval owns in the store and publish it — or abandon
   the claim if the solve fails, so waiters take over. *)
let solve_owned ctx key session union =
  let published = ref false in
  Fun.protect
    ~finally:(fun () -> if not !published then Store.abandon ctx.answers key)
    (fun () ->
      Atomic.incr ctx.solver_calls;
      let p = solve_one ctx key session union in
      Store.publish ctx.answers key p;
      published := true;
      p)

(* Resolve a key another eval was solving when we grouped. Called only
   while this eval owns nothing it has not published, so blocking here
   cannot deadlock. [await -> None] means the owner failed: re-claim and,
   if we become owner, take over the solve. *)
let rec join_deferred ctx key session union =
  match Store.await ctx.answers key with
  | Some p -> p
  | None -> (
      match Store.claim ctx.answers key with
      | Store.Hit p -> p
      | Store.Busy -> join_deferred ctx key session union
      | Store.Owner -> solve_owned ctx key session union)

(* Batch phase: probabilities for every request of one partition, in
   request order.

   Determinism: every distinct sampler key's RNG is derived from (request
   seed, structural digest) — independent of request order, pool width and
   cache state; exact keys draw nothing. Workers fill disjoint slots of a
   results array, so the floats are bit-identical whatever the pool size.

   Single flight: claims are taken without ever waiting (Hit/Owner/Busy);
   this eval solves the keys it owns, publishes them all, and only then
   awaits the keys other in-flight evals own — so no thread waits while
   holding a claim, and two concurrent evals never solve the same key
   twice. *)
let batch_probs t ctx requests =
  let n = Array.length requests in
  (* resolution per request: probability if fixed, else index into jobs
     or into the deferred (busy-elsewhere) list *)
  let fixed = Array.make n 0. in
  let slot = Array.make n (-1) in
  let defer = Array.make n (-1) in
  let seen : (key, [ `Job of int | `Done of float | `Defer of int ]) Hashtbl.t =
    Hashtbl.create 64
  in
  let jobs = ref [] and n_jobs = ref 0 in
  let deferred = ref [] and n_defer = ref 0 in
  (* Group identical requests; claim every distinct key up front. *)
  Obs.with_span "group" (fun () ->
      Array.iteri
        (fun i { Ppd.Compile.session; union } ->
          match union with
          | None -> () (* statically unsatisfiable: probability 0 *)
          | Some u -> (
              let key = canonical_key ctx.solver ctx.seed session (union_part ctx u) in
              match Hashtbl.find_opt seen key with
              | Some (`Done p) -> fixed.(i) <- p
              | Some (`Job j) -> slot.(i) <- j
              | Some (`Defer d) -> defer.(i) <- d
              | None -> (
                  match Store.claim ctx.answers key with
                  | Store.Hit p ->
                      Atomic.incr ctx.hits;
                      Hashtbl.add seen key (`Done p);
                      fixed.(i) <- p
                  | Store.Owner ->
                      Atomic.incr ctx.misses;
                      let j = !n_jobs in
                      incr n_jobs;
                      jobs := (key, session, u) :: !jobs;
                      Hashtbl.add seen key (`Job j);
                      slot.(i) <- j
                  | Store.Busy ->
                      Atomic.incr ctx.sf_joins;
                      let d = !n_defer in
                      incr n_defer;
                      deferred := (key, session, u) :: !deferred;
                      Hashtbl.add seen key (`Defer d);
                      defer.(i) <- d)))
        requests);
  let job_arr = Array.of_list (List.rev !jobs) in
  let results = Array.make (Array.length job_arr) 0. in
  let published = Array.make (Array.length job_arr) false in
  (* Solve owned keys on the pool, then publish them all — under a finalizer
     that abandons whatever was claimed but never published, so waiters on a
     failed eval wake up and take over instead of blocking forever. *)
  Fun.protect
    ~finally:(fun () ->
      Array.iteri
        (fun j (key, _, _) ->
          if not published.(j) then Store.abandon ctx.answers key)
        job_arr)
    (fun () ->
      Obs.with_span "solve" (fun () ->
          (* The memoized Mallows -> RIM conversion mutates the model
             record; force it before the parallel phase so workers only
             ever read it. *)
          Array.iter
            (fun (_, (s : Ppd.Database.session), _) ->
              ignore (Rim.Mallows.to_rim s.Ppd.Database.model))
            job_arr;
          Pool.run t.pool ~n:(Array.length job_arr) (fun j ->
              let key, session, u = job_arr.(j) in
              results.(j) <- solve_one ctx key session u));
      ignore (Atomic.fetch_and_add ctx.solver_calls (Array.length job_arr));
      Obs.with_span "cache-fill" (fun () ->
          Array.iteri
            (fun j (key, _, _) ->
              Store.publish ctx.answers key results.(j);
              published.(j) <- true)
            job_arr));
  (* Only now — owning nothing — wait for the keys other evals claimed. *)
  let joined =
    Obs.with_span "join" (fun () ->
        Array.map
          (fun (key, session, u) -> join_deferred ctx key session u)
          (Array.of_list (List.rev !deferred)))
  in
  Array.init n (fun i ->
      if slot.(i) >= 0 then results.(slot.(i))
      else if defer.(i) >= 0 then joined.(defer.(i))
      else fixed.(i))

(* One cached solve, for the top-k deep query. Within-eval duplicates
   resolve through the memo. A claim here is solved (or joined)
   immediately, so at most one is ever held per caller — the
   no-wait-while-owning rule holds trivially. *)
let solve_cached ctx session union =
  let key = canonical_key ctx.solver ctx.seed session (union_part ctx union) in
  match Hashtbl.find_opt ctx.local key with
  | Some p -> p
  | None ->
      let p =
        match Store.claim ctx.answers key with
        | Store.Hit p ->
            Atomic.incr ctx.hits;
            p
        | Store.Owner ->
            Atomic.incr ctx.misses;
            solve_owned ctx key session union
        | Store.Busy ->
            Atomic.incr ctx.sf_joins;
            join_deferred ctx key session union
      in
      Hashtbl.replace ctx.local key p;
      p

(* Bound phase of one partition: the k-edge upper bound of every
   request (0 for a statically unsatisfiable one), fanned out on the
   pool. The partitioner already forced the Mallows -> RIM conversions. *)
let upper_bounds t ctx ~n_edges requests =
  let bounds = Array.make (Array.length requests) 0. in
  Pool.run t.pool ~n:(Array.length requests) (fun i ->
      match requests.(i) with
      | { Ppd.Compile.union = None; _ } -> ()
      | { Ppd.Compile.session; union = Some u } ->
          bounds.(i) <-
            Hardq.Upper_bound.upper_bound ~k:n_edges
              (Rim.Mallows.to_rim session.Ppd.Database.model)
              ctx.lab u);
  bounds

(* ------------------------------------------------------------------ *)
(* Plan predicate rows                                                 *)
(* ------------------------------------------------------------------ *)

(* The ranking-level predicate of a plan row: some disjunct's pattern
   part matches and all its rank predicates hold. *)
let plan_pred lab (row : Plan.pred_session) r =
  List.exists
    (fun (part, ranks) ->
      (match part with
      | Plan.Always -> true
      | Plan.Never -> false
      | Plan.Union u -> Prefs.Matcher.matches_union lab u r)
      && Prefs.Rank_pred.all_hold ranks r)
    row.Plan.parts

(* One session of a [Predicates]-lowered plan. The RNG of the sampling
   leaf is derived from (request seed, plan digest, session model) — a
   pure function of the sub-problem, like the pattern paths. *)
let pred_session_prob ctx (plan : Plan.t) (row : Plan.pred_session) =
  check_deadline ctx;
  Atomic.incr ctx.solver_calls;
  let mal = row.Plan.session.Ppd.Database.model in
  match plan.Plan.leaf with
  | Plan.Rank_poly -> (
      match row.Plan.parts with
      | [ (Plan.Always, [ p ]) ] ->
          Hardq.Rank_dp.prob (Rim.Mallows.to_rim mal) ~item:p.Prefs.Rank_pred.item
            ~op:p.Prefs.Rank_pred.op ~k:p.Prefs.Rank_pred.k
      | _ -> assert false (* Rank_poly is routed only for that shape *))
  | Plan.Sample (Hardq.Solver.Rejection { n }) ->
      let rng = job_rng ctx (Hardq.Digest.model (Plan.digest plan) mal) in
      (Hardq.Rejection.run ~par:ctx.par ~n (Rim.Mallows.to_rim mal)
         (plan_pred ctx.lab row) rng)
        .Hardq.Estimate.value
  | Plan.Sample _ ->
      (* Plan.compile never routes MIS estimators over rank atoms *)
      assert false
  | Plan.Enumerate | Plan.Exact _ | Plan.Union_ie ->
      Hardq.Brute.prob_pred ~par:ctx.par (Rim.Mallows.to_rim mal)
        (plan_pred ctx.lab row)

(* Step 1 proper: per-session probabilities for the request's task, in
   global session order (the order step 2 folds and ranks). Pattern rows
   always run on the engine's placement — one partition when unsharded —
   each partition solving its sessions as one [batch_probs] batch; only
   the top-k deep query goes session by session through [solve_cached].
   The shards block is reported only when there is more than one. *)
let resolve t ctx (req : Request.t) =
  let plan = req.Request.plan in
  match plan.Plan.lowered with
  | Plan.Predicates rows ->
      let probs =
        Obs.with_span "solve" (fun () ->
            List.map
              (fun (row : Plan.pred_session) ->
                (row.Plan.session, pred_session_prob ctx plan row))
              rows)
      in
      (probs, 0., None)
  | Plan.Patterns requests ->
      let requests = Array.of_list requests in
      let batch = batch_probs t ctx in
      let probs, summary, bound_s =
        match req.Request.task with
        | Request.Top_k { k; strategy } ->
            Shard.top_k t.placement ?deadline:ctx.deadline ~batch
              ~bounds:(upper_bounds t ctx) ~prob:(solve_cached ctx) ~k ~strategy
              ~p_rel:plan.Plan.p_rel requests
        | Request.Boolean | Request.Count ->
            let probs, summary =
              Shard.probs t.placement ?deadline:ctx.deadline ~batch
                ~p_rel:plan.Plan.p_rel requests
            in
            (probs, summary, 0.)
      in
      (probs, bound_s, if Shard.shards t.placement > 1 then Some summary else None)

(* ------------------------------------------------------------------ *)
(* Steps 2 and 3: fold the task, build the stats                       *)
(* ------------------------------------------------------------------ *)

(* The left folds replicate the sequential reference's order exactly
   (bit-identity); ranking stable-sorts, so ties keep [probs]' order. *)
let fold_task task probs =
  Obs.with_span "aggregate" @@ fun () ->
  match task with
  | Request.Boolean -> Response.Probability (Ppd.Solve.any_session probs)
  | Request.Count ->
      Response.Expectation (List.fold_left (fun acc (_, p) -> acc +. p) 0. probs)
  | Request.Top_k { k; _ } -> Response.Ranked (take k (desc_by_snd probs))

(* Fold a plan's own task over the engine answer. Aggregates replicate
   [Ppd.Aggregate.over_sessions]'s fold order exactly (bit-identity with
   the sequential reference); modals collapse the probability to an
   indicator. *)
let plan_answer (plan : Plan.t) answer per_session =
  let aggregate op agg =
    let value_of =
      match agg with
      | Lang.Ast.Key_index index -> Ppd.Aggregate.session_key_value ~index
      | Lang.Ast.Joined { relation; attr } ->
          Ppd.Aggregate.joined_value plan.Plan.db ~relation ~key_index:0 ~attr
    in
    let weighted_sum, weight =
      List.fold_left
        (fun (sum, w) (s, p) ->
          match value_of s with
          | Some v -> (sum +. (p *. v), w +. p)
          | None -> (sum, w))
        (0., 0.) per_session
    in
    Response.Expectation
      (match op with
      | `Sum -> weighted_sum
      | `Avg -> if weight > 0. then weighted_sum /. weight else nan)
  in
  match (plan.Plan.task, plan.Plan.modal, answer) with
  | Lang.Ast.Sum agg, _, _ -> aggregate `Sum agg
  | Lang.Ast.Avg agg, _, _ -> aggregate `Avg agg
  | _, Some modal, Response.Probability p ->
      (* Indicators over an exactly-computed probability. [Certainly]
         tolerates inclusion–exclusion residue around 1. *)
      Response.Probability
        (match modal with
        | Lang.Ast.Possibly -> if p > 0. then 1. else 0.
        | Lang.Ast.Certainly -> if p >= 1. -. 1e-9 then 1. else 0.)
  | _ -> answer

(* Fold the ctx tallies (and the stores' own eviction counters, which
   outlive any single eval) into the process-wide registry. Concurrent
   evals may fold at once; the folded-eviction watermarks are under a
   mutex, everything else is atomic counters. *)
let fold_obs (t : t) ctx ~sessions =
  let hits = Atomic.get ctx.hits
  and misses = Atomic.get ctx.misses
  and sf_joins = Atomic.get ctx.sf_joins in
  Obs.Counter.add c_evals 1;
  Obs.Counter.add c_sessions sessions;
  Obs.Counter.add c_distinct (hits + misses + sf_joins);
  Obs.Counter.add c_solver_calls (Atomic.get ctx.solver_calls);
  Obs.Counter.add c_cache_hits hits;
  Obs.Counter.add c_cache_misses misses;
  Obs.Counter.add c_sf_joins sf_joins;
  Mutex.protect t.obs_m (fun () ->
      let ev = Store.evictions t.answers in
      Obs.Counter.add c_cache_evictions (ev - t.answer_evictions_folded);
      t.answer_evictions_folded <- ev;
      match t.terms with
      | None -> ()
      | Some c ->
          let ev = Store.evictions c in
          Obs.Counter.add c_term_evictions (ev - t.term_evictions_folded);
          t.term_evictions_folded <- ev);
  Obs.Histogram.observe h_distinct (hits + misses + sf_joins)

(* Step 3, the one place a [Response.stats] is built. [distinct]
   defaults to the store tallies' distinct keys. *)
let respond t ctx ~m0 ~t_start ~t_ready ~bound_s ~sessions ?distinct ?shards
    ~batch_id ~batch_size answer per_session =
  let t_end = Util.Timer.wall () in
  let hits = Atomic.get ctx.hits
  and misses = Atomic.get ctx.misses
  and sf_joins = Atomic.get ctx.sf_joins in
  {
    Response.answer;
    per_session;
    stats =
      {
        Response.sessions;
        distinct = Option.value distinct ~default:(hits + misses + sf_joins);
        cache_hits = hits;
        cache_misses = misses;
        sf_joins;
        term_hits = Atomic.get ctx.term_hits;
        term_misses = Atomic.get ctx.term_misses;
        solver_calls = Atomic.get ctx.solver_calls;
        jobs = Pool.size t.pool;
        batch_id;
        batch_size;
        compile_s = t_ready -. t_start;
        bound_s;
        solve_s = t_end -. t_ready -. bound_s;
        total_s = t_end -. t_start;
        metrics = Obs.diff m0 (Obs.snapshot ());
        shards;
      };
  }

(* ------------------------------------------------------------------ *)
(* The executor                                                        *)
(* ------------------------------------------------------------------ *)

(* Steps 1-3 over the request's plan; every exact answer the engine
   returns comes from here. *)
let execute t (req : Request.t) ~m0 ~t_start ~batch_id ~batch_size =
  let ctx = make_ctx t req in
  let t_ready = Util.Timer.wall () in
  let probs, bound_s, shards = resolve t ctx req in
  let answer = plan_answer req.Request.plan (fold_task req.Request.task probs) probs in
  let sessions = n_sessions req.Request.plan in
  fold_obs t ctx ~sessions;
  respond t ctx ~m0 ~t_start ~t_ready ~bound_s ~sessions ?shards ~batch_id
    ~batch_size answer probs

let eval_one t ~batch_id ~batch_size (req : Request.t) =
  if Atomic.get t.stopped then raise Stopped;
  Obs.with_span "engine.eval" @@ fun () ->
  let m0 = Obs.snapshot () in
  let t_start = Util.Timer.wall () in
  execute t req ~m0 ~t_start ~batch_id ~batch_size

let next_batch_id t = Atomic.fetch_and_add t.batch_ids 1

(* A batch shares one batch id and the engine's stores: the first request
   to claim a key solves it, the rest hit. Requests evaluate in order —
   grouping happens through the store, so a batch interleaves correctly
   with concurrent evals from other threads. Per-request failures are
   per-request [Error]s, not batch failures. *)
let eval_batch t reqs =
  let batch_id = next_batch_id t in
  let batch_size = Array.length reqs in
  Obs.Counter.incr c_batches;
  Obs.Histogram.observe h_batch batch_size;
  Array.map
    (fun req ->
      match eval_one t ~batch_id ~batch_size req with
      | resp -> Ok resp
      | exception e -> Error e)
    reqs

let eval t req = eval_one t ~batch_id:(next_batch_id t) ~batch_size:1 req

(* ------------------------------------------------------------------ *)
(* Anytime serving (ROADMAP item 4)                                    *)
(* ------------------------------------------------------------------ *)

let c_serves = Obs.counter "engine.anytime.serves"
let c_any_timeouts = Obs.counter "engine.anytime.timeouts"
let h_ci_width_bp = Obs.histogram "engine.anytime.ci_width_bp"

type anytime = {
  status : [ `Final | `Timeout | `Cancelled ];
  rounds : int;
  draws : int;
  ci_lo : float;
  ci_hi : float;
}

type served = { response : Response.t; anytime : anytime option }

(* Cost model: serve exactly whenever an exact answer is affordable — it
   satisfies any SLO with a degenerate (point) interval. The plan carries
   the planner's dichotomy verdict (a general pattern union is the #P-hard
   family of §4.4 — that is what the sampler is for; a requested sampler
   is an [Estimated] verdict, which opts the request into anytime).
   Ranked, modal and aggregate answers have no CI semantics, so they
   always route exact. *)
let route_exact (req : Request.t) =
  let p = req.Request.plan in
  match (req.Request.task, p.Plan.modal, p.Plan.task) with
  | Request.Top_k _, _, _
  | _, Some _, _
  | _, None, (Lang.Ast.Sum _ | Lang.Ast.Avg _ | Lang.Ast.Top_sessions _) ->
      true
  | (Request.Boolean | Request.Count), None, (Lang.Ast.Prob | Lang.Ast.Count) -> (
      match p.Plan.verdict with
      | Plan.Tractable _ -> true
      | Plan.Hard _ | Plan.Estimated _ -> false)

(* The anytime sampler's sessions: one (model, event predicate) pair per
   session whose event is not statically impossible (those contribute
   nothing to either task's answer). The events are the exact paths':
   the union event of a pattern row, [plan_pred] of a predicate row. *)
let sampler_sessions (plan : Plan.t) =
  let lab = Ppd.Database.labeling plan.Plan.db in
  let entry (s : Ppd.Database.session) event =
    Some (Rim.Mallows.to_rim s.Ppd.Database.model, event)
  in
  Array.of_list
    (match plan.Plan.lowered with
    | Plan.Patterns requests ->
        List.filter_map
          (fun { Ppd.Compile.session = s; union } ->
            Option.bind union (fun u -> entry s (Hardq.Rejection.union_event lab u)))
          requests
    | Plan.Predicates rows ->
        List.filter_map
          (fun (row : Plan.pred_session) ->
            if List.for_all (fun (part, _) -> part = Plan.Never) row.Plan.parts then None
            else entry row.Plan.session (plan_pred lab row))
          rows)

(* How many draws an anytime serve may spend before giving up on an
   unreachable CI target: well past the point where the pooled
   Clopper–Pearson width stops moving at double precision. *)
let max_serve_draws = 1 lsl 20

(* The resumable sampler loop over the request's plan. Round 1 always runs
   (64 draws), so even an already-expired deadline returns an estimate
   with a CI rather than nothing. *)
let serve_anytime t ~on_frame ~cancelled (req : Request.t) slo ~m0 ~t_start =
  let t_ready = Util.Timer.wall () in
  let task =
    match req.Request.task with
    | Request.Boolean -> Hardq.Anytime.Boolean
    | Request.Count -> Hardq.Anytime.Count
    | Request.Top_k _ -> assert false (* always routed exact *)
  in
  let plan = req.Request.plan in
  let sessions = sampler_sessions plan in
  (* Round [r]'s RNG folds [r] onto the plan digest — a pure function of
     the request's meaning, like [key_digest] — so frame sequences are
     byte-identical at any pool width and any stopping target (the prefix
     property). *)
  let base = Plan.digest plan in
  let rng_of_round r =
    Util.Rng.derive req.Request.seed (Hardq.Digest.to_int (Hardq.Digest.int base r))
  in
  let sampler = Hardq.Anytime.make ~task ~sessions ~rng_of_round in
  let limit =
    let slo_limit =
      match slo with `Deadline span -> Some (t_start +. span) | `Ci_width _ -> None
    in
    match (slo_limit, req.Request.deadline) with
    | Some a, Some b -> Some (min a b)
    | Some a, None -> Some a
    | None, d -> d
  in
  let target = match slo with `Ci_width w -> Some w | `Deadline _ -> None in
  let expired () =
    match limit with Some d -> Util.Timer.wall () > d | None -> false
  in
  let rec loop () =
    let f = Obs.with_span "round" (fun () -> Hardq.Anytime.step sampler) in
    on_frame f;
    if cancelled () then (`Cancelled, f)
    else if match target with Some w -> Hardq.Anytime.width f <= w | None -> false
    then (`Final, f)
    else if Hardq.Anytime.width f <= 0. then (`Final, f)
    else if expired () then (`Timeout, f)
    else if Hardq.Anytime.draws sampler >= max_serve_draws then (`Timeout, f)
    else loop ()
  in
  let status, last = loop () in
  let answer =
    match task with
    | Hardq.Anytime.Boolean -> Response.Probability last.Hardq.Anytime.estimate
    | Hardq.Anytime.Count -> Response.Expectation last.Hardq.Anytime.estimate
  in
  let rounds = Hardq.Anytime.rounds sampler in
  Obs.Counter.incr c_serves;
  if status = `Timeout then Obs.Counter.incr c_any_timeouts;
  Obs.Histogram.observe h_ci_width_bp
    (int_of_float (Hardq.Anytime.width last *. 1e4));
  let ctx = make_ctx t req in
  Atomic.set ctx.solver_calls rounds;
  let response =
    respond t ctx ~m0 ~t_start ~t_ready ~bound_s:0. ~sessions:(n_sessions plan)
      ~distinct:(Array.length sessions) ~batch_id:(next_batch_id t) ~batch_size:1
      answer []
  in
  {
    response;
    anytime =
      Some
        {
          status;
          rounds;
          draws = Hardq.Anytime.draws sampler;
          ci_lo = last.Hardq.Anytime.ci_lo;
          ci_hi = last.Hardq.Anytime.ci_hi;
        };
  }

let serve t ?(on_frame = fun (_ : Hardq.Anytime.frame) -> ())
    ?(cancelled = fun () -> false) (req : Request.t) =
  match req.Request.slo with
  | None -> { response = eval t req; anytime = None }
  | Some slo ->
      if Atomic.get t.stopped then raise Stopped;
      Obs.with_span "engine.serve" @@ fun () ->
      let m0 = Obs.snapshot () in
      let t_start = Util.Timer.wall () in
      if route_exact req then
        (* Exact answers satisfy any SLO; scalar ones surface as a
           degenerate point interval so clients see a uniform shape. *)
        let response =
          execute t req ~m0 ~t_start ~batch_id:(next_batch_id t) ~batch_size:1
        in
        let anytime =
          match response.Response.answer with
          | Response.Probability v | Response.Expectation v ->
              Some
                {
                  status = `Final;
                  rounds = 0;
                  draws = 0;
                  ci_lo = v;
                  ci_hi = v;
                }
          | Response.Ranked _ -> None
        in
        { response; anytime }
      else serve_anytime t ~on_frame ~cancelled req slo ~m0 ~t_start

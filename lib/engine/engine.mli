(** The parallel, cached query-evaluation engine — the public entry point
    for Boolean, Count-Session and Most-Probable-Session queries over a
    RIM-PPD.

    Every supported query reduces to many independent per-session
    pattern-union inferences [Pr(Q | s)] (paper §3.1). The engine:

    - distributes those inferences over a fixed pool of OCaml 5 domains
      ({!Pool}), in chunks;
    - memoizes them in a {b two-tier} content-addressed sub-answer store
      ({!Store}): an answer tier keyed on the canonicalized (seed, solver,
      RIM model, labeling, pattern union) — the paper's §6.4 grouping
      optimization generalized so results survive across queries {e and}
      across concurrent requests — and a term tier sharing solved
      inclusion–exclusion conjunctions between queries on the same
      (model, labeling);
    - deduplicates concurrent work with single-flight claims: two
      in-flight evaluations never solve the same key twice, the second
      joins the first's result;
    - exposes typed entry points, {!eval} and {!eval_batch}, on
      {!Request.t} / {!Response.t} records, configured by a {!Config.t}
      record instead of optional-argument sprawl;
    - answers every exact request — {!eval}, {!eval_batch} and {!serve}'s
      exact route — with one executor: compile once, resolve the
      per-session probabilities through the store on the engine's
      session partitions ({!Config.shards}; one when unsharded), fold
      the task, build the stats.

    {b Determinism.} Results are bit-identical whatever the pool size,
    cache configuration or warm state: each sub-problem's RNG is derived
    from (request seed, structural digest) — a pure function of the
    sub-problem, never of request order — and each inference writes only
    its own slot. A cache hit returns the very float a cold solve would
    compute.

    {b Thread safety.} One engine may serve concurrent [eval]s from
    multiple sys-threads (the server does): the pool accepts concurrent
    publishers, the stores are mutex-protected, and per-eval state is
    local. The sequential single-core reference lives in [Ppd.Solve],
    re-exported here as {!Reference}. *)

module Pool = Pool
module Lru = Lru
module Store = Store
module Request = Request
module Response = Response

module Reference = Ppd.Solve
(** The engine-independent sequential baseline ([Ppd.Solve]): what the
    QA oracle diffs {!eval} against. *)

(** Engine construction knobs. Build one with {!Config.default} and the
    [with_*] setters (the record is public, so [{ default with cache =
    false }] works too). *)
module Config : sig
  type t = {
    jobs : int option;
        (** total domain count; [None] = one per core (at least 1);
            [Some 1] spawns no domains and evaluates inline *)
    cache : bool;  (** master switch for both store tiers *)
    answer_capacity : int;  (** answer-tier LRU entries (default 8192) *)
    term_capacity : int;
        (** term-tier LRU entries (default 4096); 0 disables the term
            tier only *)
    batch_window : float;
        (** serving-layer gather window in seconds (default 2 ms); the
            engine itself does not sleep — the server's batch scheduler
            reads this *)
    batch_max : int;
        (** largest request group the serving layer gathers (default 16) *)
    kernel : Hardq.Kernel.t;
        (** DP layout of the exact solvers (default {!Hardq.Kernel.Flat}).
            Either kernel returns byte-identical answers (see
            {!Hardq.Kernel}), so the cache keys — and cached floats — are
            valid across kernels; the knob trades the boxed reference
            layout against the flat production layout for debugging and
            differential testing. *)
    shards : int;
        (** session partitions, at least 1 (default 1 = unsharded). The
            sessions of every pattern-row request — a parsed CQ or a
            [Patterns]-lowered plan, Boolean / Count / Top-k — are
            placed on [shards] partitions by consistent hashing
            ({!Shard}); each partition runs as one batch on this
            engine's domain pool through its sub-answer store, with
            per-shard deadlines and typed partial failure. An unsharded
            engine is the one-partition placement. Answers are
            bit-identical at any shard count; with [shards > 1] they
            carry a per-shard accounting block in
            [Response.stats.shards]. *)
  }

  val default : t
  val with_jobs : int -> t -> t
  val with_cache : bool -> t -> t
  val with_answer_capacity : int -> t -> t
  val with_term_capacity : int -> t -> t
  val with_batch_window : float -> t -> t
  val with_batch_max : int -> t -> t
  val with_kernel : Hardq.Kernel.t -> t -> t
  val with_shards : int -> t -> t
  (** Raises [Invalid_argument] when the count is below 1. *)
end

type t
(** An engine: a domain pool plus (optionally) the two-tier sub-answer
    store. Create once, evaluate many requests — concurrently if you
    like — then {!shutdown}. *)

exception Stopped
(** Raised by {!eval} on an engine that has been {!shutdown} — a typed
    error instead of silently evaluating inline on dead-pool semantics,
    so a serving layer draining its engine can distinguish "request
    raced past shutdown" from solver failures. *)

val create : Config.t -> t
val config : t -> Config.t

val eval : t -> Request.t -> Response.t
(** Evaluate one request: compile the query (Algorithm 2), group the
    per-session inferences by canonical key, claim each distinct key in
    the store (hit / own / join), solve the owned ones on the pool, and
    aggregate for the requested task. Compilation errors
    ([Ppd.Compile.Unsupported], [Ppd.Compile.Grounding_too_large]) and
    solver timeouts ([Util.Timer.Out_of_time], for positive request
    budgets) propagate to the caller. Raises {!Stopped} after
    {!shutdown}. Safe to call from concurrent threads. *)

val eval_batch : t -> Request.t array -> (Response.t, exn) result array
(** Evaluate a gathered batch under one batch id (visible in
    [Response.stats.batch_id]): requests evaluate in order and share
    sub-answers through the store, so a batch of same-shaped requests
    solves each distinct key once. A request's failure is its own
    [Error]; the rest of the batch still evaluates. *)

(** {1 Anytime serving}

    Requests carrying an accuracy SLO ({!Request.slo}) are served by
    {!serve}: a cost model picks exact solving vs. resumable sampling
    per plan verdict, and the sampling path emits progressively
    tightening [(estimate, ci_lo, ci_hi, draws)] frames
    ({!Hardq.Anytime.frame}) until the SLO is met, the deadline expires
    (best estimate so far, typed [`Timeout] — never an error), or the
    caller cancels. Frame sequences are a pure function of the request
    content and seed: round RNGs derive from (seed, plan digest, round
    index), so a fixed seed replays byte-identical frames at any pool
    width, and a tighter CI target strictly extends a looser target's
    sequence. *)

(** How one {!serve} call concluded, echoed on the wire as the terminal
    frame's typed status. *)
type anytime = {
  status : [ `Final | `Timeout | `Cancelled ];
      (** [`Final]: SLO met (or the answer is exact). [`Timeout]: the
          SLO deadline, request deadline or draw cap expired first — the
          response still carries the best estimate. [`Cancelled]: the
          caller's [cancelled] hook fired. *)
  frames : int;  (** progress frames emitted (0 on the exact route) *)
  rounds : int;  (** sampling rounds run *)
  draws : int;  (** cumulative world draws *)
  ci_lo : float;
  ci_hi : float;
      (** final interval; degenerate ([ci_lo = ci_hi] = the answer) on
          the exact route *)
}

type served = { response : Response.t; anytime : anytime option }
(** [anytime] is [None] when the request had no SLO (plain {!eval}
    semantics) or the answer is ranked (no CI shape). *)

val serve :
  t ->
  ?on_frame:(Hardq.Anytime.frame -> unit) ->
  ?cancelled:(unit -> bool) ->
  Request.t ->
  served
(** Serve one request under its SLO. [on_frame] fires after every
    sampling round with the cumulative frame (never on the exact
    route); [cancelled] is polled between rounds — returning [true]
    stops the loop with status [`Cancelled]. Hard-verdict requests run
    the anytime sampler sequentially on the calling thread (round cost
    is bounded, so cancellation latency is too); tractable, ranked,
    modal and aggregate requests run {!eval}'s executor on the work
    already compiled for routing, and the exact answer satisfies any SLO
    as a point interval. The sampling path
    never raises [Util.Timer.Out_of_time]: deadlines degrade to
    [`Timeout] with the best estimate so far. *)

val jobs : t -> int
(** Domains the engine computes with (pool size, caller included). *)

val cache_hits : t -> int
val cache_misses : t -> int
(** Lifetime answer-tier counters across every {!eval} on this engine (0
    when the cache is disabled). Per-request counters are in
    {!Response.stats}. *)

val cache_length : t -> int
(** Answer-tier entries currently cached. *)

val term_cache_length : t -> int
(** Term-tier entries currently cached. *)

val clear_cache : t -> unit
(** Drop both tiers. *)

val shutdown : t -> unit
(** Join the pool's worker domains and retire the engine: subsequent
    {!eval} calls raise {!Stopped}. Idempotent — a second call is a
    no-op, so a drain path and a [Fun.protect] finalizer can both call
    it safely. *)

val stopped : t -> bool
(** [true] once {!shutdown} has run. *)

val with_engine : Config.t -> (t -> 'a) -> 'a
(** [with_engine cfg f] runs [f] on a fresh engine and always shuts it
    down. *)

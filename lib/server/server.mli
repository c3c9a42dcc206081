(** The concurrent query server: one resident {!Engine.t} and a
    {!Registry} of named PPDs behind a newline-delimited-JSON socket
    ({!Protocol}).

    {b Threading model.} One accept thread; one reader thread per
    connection (decode, admission, error replies); one batch-scheduler
    thread draining the bounded admission queue ({!Bqueue}) into
    per-shape gather buckets; a fixed set of worker threads consuming
    flushed batches and running [Engine.eval_batch] concurrently — the
    engine is thread-safe, shares solved sub-answers across concurrent
    requests through its two-tier store, and single-flights duplicate
    sub-problems, so no server-side serialization is needed. Replies
    carry the request id, so answers to one connection may come back out
    of order under pipelining.

    {b Batching.} Admitted requests with the same dataset, query, solver
    and seed gather for up to [batch_window_ms] (or [batch_max]
    requests, whichever first) and are evaluated as one engine batch, so
    their shared sub-problems are solved once. A batched request never
    waits more than one gather window beyond what its deadline slack
    allows; [batch_window_ms <= 0] (or [batch_max <= 1]) dispatches
    every request immediately. Batching never changes answers — a cache
    hit is byte-identical to a cold solve.

    {b Admission.} A full backlog — requests admitted but not yet
    processing — sheds the request immediately with a typed [overloaded]
    error; the bound is the knee of the latency curve, not a buffer.
    Connections beyond [max_connections] are refused the same way.

    {b Deadlines.} A request's [timeout_ms] becomes (a) a rejection at
    dequeue time if it already expired in the queue, and (b) a CPU
    budget for the engine: the remaining wall time times the pool size
    bounds every solver invocation, so a request cannot hold a worker
    for long after its deadline. A request that completes is answered
    even if slightly past its deadline — the caller paid for it.

    {b Drain.} {!request_drain} (or SIGTERM/SIGINT via
    {!install_signal_handlers}) stops the accept loop, closes the
    admission queue (queued and in-flight requests still complete and
    are answered; new ones get [shutting_down]), joins the workers,
    closes the connections, shuts the engine down, and flushes an [Obs]
    metrics snapshot to [metrics_path]. {!await} returns when all of
    that is done; the binary then exits 0. *)

(** {1 Subsystem modules} — [Server] is the library's wrapping module;
    the protocol, codec and client live here. *)

module Json = Json
module Protocol = Protocol
module Registry = Registry
module Bqueue = Bqueue
module Client = Client

(** {1 The server} *)

type config = {
  address : Protocol.address;
  jobs : int option;  (** engine pool size; [None] = engine default *)
  cache_capacity : int;  (** answer-tier store entries *)
  term_cache_capacity : int;  (** term-tier store entries; [0] disables *)
  queue_capacity : int;  (** admission-backlog bound *)
  workers : int;  (** evaluator threads, >= 1 *)
  max_connections : int;
  default_timeout_ms : float option;  (** applied when a request has none *)
  max_request_bytes : int;  (** longest accepted request line *)
  metrics_path : string option;  (** flush an Obs snapshot here on drain *)
  preload : Protocol.dataset_spec list;  (** synthesized at {!start} *)
  quiet : bool;  (** suppress the stderr lifecycle log lines *)
  intra : bool;
      (** default parallelism for evals without a ["parallelism"] field:
          [true] lets each solver call fan intra-query work into the
          engine pool. Answers are bit-identical either way. *)
  batch_window_ms : float;  (** gather window; [<= 0] = no batching *)
  batch_max : int;  (** flush a gather bucket at this many requests *)
  kernel : Hardq.Kernel.t;
      (** DP layout of the exact solvers (default {!Hardq.Kernel.Flat});
          answers are byte-identical for either kernel *)
  shards : int;
      (** session partition count (default 1 = unsharded). [> 1]
          places classic-query sessions on that many partitions run on
          the engine's domain pool ({!Engine.Config.shards}); replies
          gain the additive ["shards"] accounting block, and partial
          shard failure degrades to a typed lower-bound answer instead
          of an error. Answers are bit-identical at any shard count. *)
}

val default_config : Protocol.address -> config
(** jobs = engine default, answer cache 8192, term cache 4096, queue 64,
    2 workers, 1024 connections, no default timeout, 1 MiB lines, no
    metrics path, no preloads, quiet (the binary's [--quiet] flag opts
    into silence explicitly; library embedders flip [quiet] off when
    they want the lifecycle log), intra-query parallelism on, 2 ms
    gather window, 16 requests per batch, 1 shard (unsharded). *)

type t

val start : config -> t
(** Bind, enable [Obs] metrics, preload datasets, spawn the accept and
    worker threads. Raises [Unix.Unix_error] if the address cannot be
    bound. *)

val address : t -> Protocol.address
(** The bound address — with the actual port when the config said 0. *)

val request_drain : t -> unit
(** Begin a graceful drain. Async-signal-safe (an atomic flag and a
    self-pipe write); the actual teardown runs on {!await}'s caller.
    Idempotent. *)

val draining : t -> bool

val await : t -> unit
(** Block until a drain is requested, then tear down: join the accept
    loop, the batch scheduler and the workers (completing every admitted
    request), close connections, [Engine.shutdown], flush metrics. Call
    exactly once. *)

val drain : t -> unit
(** [request_drain] + {!await} — the programmatic shutdown used by
    tests. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT call {!request_drain}. (SIGPIPE is already
    ignored by {!start} — remote hangups must not kill the server.) *)

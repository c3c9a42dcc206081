(** Session partitions: placement and the coordinator policy of the
    sharded session store.

    Count-Session is a sum of per-session probabilities and
    Most-Probable-Session a global top-k of per-session scores, so both
    split cleanly across sessions (paper §3.1). A shard is a subset of
    sessions, placed by consistent hashing over the session key
    ({!Chash}; placement is a pure function of the key string, so it is
    stable across runs and stays out of every cache key). This module
    owns no threads and no solver: the caller supplies a {!batch}
    function that solves one partition's sessions in one go, the top-k
    bound batch, and the per-session [prob] of the top-k deep query.
    Partitions run one after another on the calling thread, and each
    batch fans out over the caller's domain pool by itself. The engine
    passes its pooled, store-backed solve, so every request shares the
    engine's sub-answer store and intra-query parallelism — an
    unsharded engine is simply a one-shard placement.

    {b Bit-identity.} Partitions return per-session probabilities, never
    partial aggregates — float addition is not associative, so results
    merge back in global session order, reproducing the sequential
    reference's order exactly at any shard count. Top-k merges only
    exactly-evaluated sessions and prunes only below a slack
    ([bound < threshold -. Upper_bound.prune_slack], where the running
    threshold never exceeds the true k-th probability), so the top-k of
    the merged list is bit-identical to the naive sequential reference —
    including ties and bounds that rounded a few ulps below their exact
    value, which the slack always keeps, in global session order.

    {b Partial failure.} A partition that misses its deadline, runs out
    of budget, raises, or carries an injected fault degrades the answer
    instead of failing it: the {!summary} records per-shard outcomes and
    the [exact] flag drops to [false] (a Count answer becomes a lower
    bound; a ranking becomes best-effort over the answered shards).
    When no partition holding sessions answers, there is nothing to
    degrade to: the call re-raises the lowest failing shard's own
    exception ([Util.Timer.Out_of_time] for a deadline, a budget, an
    injected drop or a late delay; [Failure msg] for an injected error),
    so a one-shard placement fails exactly like an unpartitioned solve. *)

module Chash = Chash

(** Fault injection for tests: make shard [i] drop its replies, deliver
    them late, or answer with an error. Process-global and thread-safe;
    a no-op unless a fault was set, so the production path pays one
    hashtable probe per partition run. *)
module Inject : sig
  type fault =
    | Drop  (** the shard never answers: it times out at once *)
    | Delay of float
        (** the shard answers this many seconds late: it sleeps that
            long, or times out at once when the delay would land past
            the request deadline *)
    | Error of string  (** the shard answers with a typed error *)

  val set : shard:int -> fault -> unit
  val clear : shard:int -> unit
  val reset : unit -> unit
  val find : shard:int -> fault option
end

type t
(** A placement: the shard count and the session-key-to-shard map. *)

val create : ?assign:(string -> int) -> shards:int -> unit -> t
(** [assign] overrides the consistent-hash placement (session-key string
    to shard id; tests use it to force skew and empty shards). It is
    called on the coordinating thread only, in session order. *)

val shards : t -> int
val ring : t -> Chash.t
val assign : t -> string -> int
(** The placement actually in force ([assign] override or the ring). *)

val session_key : p_rel:string -> Ppd.Database.session -> string
(** The placement key of a session: its p-relation name plus its key
    attribute values, NUL-separated. *)

type outcome =
  | Answered
  | Timed_out  (** deadline, budget, or an injected drop or late delay *)
  | Errored of string
  | Skipped_by_bound
      (** top-k phase 2 never queried this shard: its best upper bound
          fell below the running k-th lower bound by more than
          {!Hardq.Upper_bound.prune_slack} *)

type summary = {
  shards : int;
  answered : int;
  timed_out : int;
  errored : int;
  pruned_shards : int;  (** top-k shards skipped by bound *)
  deep_shards : int;  (** top-k shards deep-queried in phase 2 *)
  pruned_sessions : int;  (** sessions skipped by bound, both levels *)
  solved_sessions : int;  (** sessions solved across answered shards *)
  exact : bool;
      (** every shard answered every phase: the answer equals the
          sequential reference bit-for-bit. [false] marks a typed
          degraded answer (lower bound / best effort), never a guess
          presented as exact. *)
  outcomes : outcome array;  (** per shard id *)
  best_bounds : float array;
      (** top-k phase 1: each shard's best upper bound ([nan] for
          shards with no sessions); [[||]] for scatter-only tasks *)
  kth : float option;
      (** top-k: the final k-th ranked probability (the prune
          threshold's fixpoint), when k answers exist *)
}

type prob = Ppd.Database.session -> Prefs.Pattern_union.t -> float
(** Per-session inference, for the top-k deep query. It may raise
    [Util.Timer.Out_of_time], which times out the calling shard only. *)

type batch = Ppd.Compile.request array -> float array
(** One partition's sessions solved as one batch: a value per request,
    in the order given ([0.] is the caller's choice for a statically
    unsatisfiable one). Like {!prob} it may raise
    [Util.Timer.Out_of_time]. *)

val probs :
  t ->
  ?deadline:float ->
  batch:batch ->
  p_rel:string ->
  Ppd.Compile.request array ->
  (Ppd.Database.session * float) list * summary
(** Run every non-empty partition's [batch] and merge the
    per-session probabilities back into global session order. The list
    covers exactly the sessions of answered shards (all of them when
    [summary.exact]). [deadline] is an absolute [Util.Timer.wall]
    instant: it times out late-delay faults; the work itself enforces it
    by raising [Util.Timer.Out_of_time]. *)

val top_k :
  t ->
  ?deadline:float ->
  batch:batch ->
  bounds:(n_edges:int -> batch) ->
  prob:prob ->
  k:int ->
  strategy:[ `Naive | `Edges of int ] ->
  p_rel:string ->
  Ppd.Compile.request array ->
  (Ppd.Database.session * float) list * summary * float
(** Most-Probable-Session. [`Naive] is {!probs}. [`Edges n] runs
    two-phase: every partition's per-session upper bounds as one
    [bounds ~n_edges] batch per partition (paper §4.3.2,
    the [n] hardest transitive-closure edges), then shards deep-queried
    one at a time in descending best-bound order through [prob] —
    skipping any shard whose best bound is below the running k-th exact
    lower bound by more than {!Hardq.Upper_bound.prune_slack}, and
    letting each deep-queried shard skip its own sessions the same way.
    Returns the exactly-evaluated sessions in global order (their top k,
    stable-sorted by descending probability, is bit-identical to the
    naive sequential reference when [exact], ties included), the
    summary, and the seconds phase 1 took ([0.] for [`Naive]). *)

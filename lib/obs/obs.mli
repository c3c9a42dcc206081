(** Process-wide observability: named atomic counters and log-scale
    histograms that always record, and lightweight spans behind a tracing
    switch.

    Metrics live in a process-wide registry; {!counter} and {!histogram}
    intern by name, so any layer (solvers, samplers, the engine, the CLI)
    can reference the same metric without threading handles around.

    {b Domain safety.} Counters and histograms are sharded per domain and
    merged on read: recording from inside pool worker domains is lock-free
    and race-free, and a read observes every shard. Reads that race with
    writers may miss in-flight increments (they are not linearization
    points) — quiesce the pool before snapshotting for exact totals, which
    is what the engine does.

    {b Overhead contract.} There is one metrics mode: {!Counter.add} and
    {!Histogram.observe} always record, in every process (server, CLI,
    tests, benchmarks), so whatever measures the served path measures
    the recording with it. Recording is one atomic add on the calling
    domain's shard, and instrumented hot loops accumulate into plain
    local ints and flush once per solver call, so the cost is a handful
    of atomic adds per inference. Spans allocate and pile up per domain,
    so they alone keep a switch: {!with_span} is one atomic load and a
    branch unless {!enable_tracing} was called. *)

(** {1 Tracing switch} *)

val enable_tracing : unit -> unit
(** Turn span recording on. *)

val disable_tracing : unit -> unit
val tracing : unit -> bool

(** {1 Counters} *)

module Counter : sig
  type t

  val name : t -> string

  val incr : t -> unit

  val add : t -> int -> unit
  (** [add t n] — no-op when [n = 0]. Negative deltas are permitted
      (gauges). *)

  val value : t -> int
  (** Sum over every domain shard. *)

  val reset : t -> unit
end

(** {1 Log-scale histograms} *)

module Histogram : sig
  type t
  (** Power-of-two buckets over nonnegative ints: bucket 0 counts the
      value 0 and bucket [b >= 1] counts values in [[2^(b-1), 2^b)]. *)

  val name : t -> string

  val observe : t -> int -> unit
  (** Record one value; negative values land in bucket 0 and contribute
      0 to the sum. *)

  val count : t -> int
  val sum : t -> int

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(lower_bound, count)], ascending. *)

  val reset : t -> unit
end

(** {1 Registry} *)

val counter : string -> Counter.t
(** Intern: the first call creates and registers the counter, later calls
    return the same one. Raises [Invalid_argument] if the name is already
    registered as a histogram. *)

val counter_indexed : string -> int -> Counter.t
(** [counter_indexed base i] interns ["<base>.<i>"] — the per-member
    counter family convention (one counter per shard, per worker, ...)
    without every caller reinventing the name format. *)

val histogram : string -> Histogram.t
(** Intern, like {!counter}. *)

(** {1 Snapshots} *)

type value =
  | Count of int
  | Hist of { count : int; sum : int; buckets : (int * int) list }

type snapshot = (string * value) list
(** Sorted by metric name; metrics that never recorded are omitted. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff earlier later]: what happened between the two snapshots;
    entries that did not move are dropped. *)

val find : snapshot -> string -> value option

val count : snapshot -> string -> int
(** The counter's value in the snapshot, 0 when absent (or a histogram). *)

val reset : unit -> unit
(** Zero every registered metric. *)

val json_of_snapshot : ?extra:(string * string) list -> snapshot -> string
(** One JSON object:
    [{"counters": {name: int, ...},
      "histograms": {name: {"count": int, "sum": int,
                            "buckets": [[lower_bound, count], ...]}, ...}}].
    [extra] prepends literal key/value pairs (values are spliced verbatim,
    so pass valid JSON, e.g. ["\"eval\""] or ["42"]). *)

(** {1 Spans} *)

module Span : sig
  type t

  val name : t -> string
  val elapsed_s : t -> float

  val children : t -> t list
  (** Chronological order. *)
end

val with_span : string -> (unit -> 'a) -> 'a
(** Time [f] and record it under the current domain's open span (or as a
    new root). Equivalent to [f ()] unless {!tracing}. Exception-safe:
    the span is closed even if [f] raises. *)

val trace_roots : unit -> Span.t list
(** Completed root spans of the calling domain, oldest first. *)

val clear_trace : unit -> unit

val pp_trace : Format.formatter -> unit -> unit
(** Indented span tree with wall-clock milliseconds. *)

(** Named, resident RIM-PPD instances.

    The server's reason to exist is amortization: datasets are generated
    once per [(name, size, sessions, seed)] specification and kept
    resident, so every request after the first pays neither process
    startup nor dataset synthesis — and the engine's cross-query LRU
    cache keeps paying off across {e clients}. Parameterized specs are
    the "synthesized instances": [polls] at [size=20, sessions=5000] is
    generated on first use and cached like the defaults.

    Each resident dataset also keeps the plans compiled against it
    (prepared plans, DESIGN.md §9.5): {!request} compiles a query once per
    dataset and serves every repeat from that cache.

    Thread-safe: generation of a missing entry runs under the registry
    lock (concurrent requests for the same spec generate once); plans
    compile outside it, once per key ({!request}). *)

type t

val create : ?max_size:int -> ?max_sessions:int -> unit -> t
(** Admission bounds on generator parameters (defaults: [max_size = 64],
    [max_sessions = 100_000]) — a registry refuses to synthesize
    arbitrarily large instances on behalf of a remote client. *)

val names : string list
(** The known dataset families: [["polls"; "movielens"; "crowdrank"]]. *)

val find :
  t -> Protocol.dataset_spec -> (Ppd.Database.t, Protocol.error) result
(** Resolve a spec, generating and caching on first use. Errors:
    [Unknown_dataset] (message enumerates {!names}) and [Bad_request]
    for out-of-bounds parameters. *)

val plan_capacity : sessions:int -> int
(** How many compiled plans a resident dataset of [sessions] sessions
    keeps, least recently used first out: [min 64 (65536 / sessions)],
    at least 1. A plan holds one row (session, pattern union) per
    session of its p-relation; sessions with equal grounding
    environments share one union value, so on the Figure 4 query (no
    session atom: every row shares one union) a row costs about 6
    words (824 words at 100 sessions, 60224 at 10000, measured with
    [Obj.reachable_words] on a plan minus its database). The cache thus
    holds at most 65536 such rows (about 3 MB) or one plan: 64 plans at
    the 100 sessions of [warm-mix], 13 at 5000, and 1 at the server's
    [max_sessions] of 100000 (about 5 MB beside a 25 MB dataset). A
    query whose unions differ per session (a session atom) costs more
    per row, up to one union each. *)

val request :
  t ->
  budget:float ->
  ?deadline:float ->
  parallelism:[ `Inter | `Intra ] ->
  Protocol.eval ->
  (Engine.Request.t, Protocol.error) result
(** The engine request of an eval: resolve its dataset as {!find} does,
    take its plan from that dataset's plan cache (compiling it with
    {!Protocol.plan_of_eval} on a miss), and finish it with
    {!Protocol.request_of_plan}. The server and [hardq] build every
    request here.

    The cache key is the full query value (the ["query"] CQ or the
    parsed ["q"] AST) and the eval's [solver], never a digest alone;
    task, seed, budget and SLO are per request and not part of it. A
    hit returns the very plan a miss compiled: interning is append-only
    and idempotent ({!Ppd.Database.intern_label}), so the plan's label
    ids keep their meaning while later queries intern more labels.
    Compiles are single-flight per key, and a failed compile (a typed
    [Unsupported] error or an exception) leaves no entry. Hits and
    misses count in the [registry.plan_hits] and [registry.plan_misses]
    metrics. *)

val preload : t -> Protocol.dataset_spec -> (unit, Protocol.error) result
(** Generate now (at server start) rather than on first request. *)

val showcase_query : string -> string option
(** The dataset family's default query text, e.g. the Figure 4 query for
    [polls] — what the CLI runs when no query is given. *)

val cached : t -> string list
(** Keys of the currently resident instances (for logging/metrics). *)

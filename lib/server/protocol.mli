(** Wire protocol of the query server: typed requests, replies and
    errors, and their JSON codec.

    The transport is newline-delimited JSON — one request object per
    line in, one reply object per line out. Replies echo the request's
    ["id"] field verbatim (any JSON value), so clients may pipeline.

    The codec reuses the engine's own types ([Engine.Request.task],
    [Hardq.Solver.t], [Ppd.Query.t] via {!Ppd.Query.to_string} /
    {!Ppd.Parser.parse}), so a decoded request evaluates to answers
    bit-identical to a direct [Engine.eval] of the same request — floats
    cross the wire through {!Json}'s round-trip printer.

    {b Versioning.} Every encoded request and reply carries
    [("v", {!version})]. Decoders accept an absent ["v"] (pre-versioning
    peers speak the same schema) and reject a different number with
    [Bad_request]. Decoders ignore unknown fields, so additive schema
    evolution — like the reply's ["cache"] stats block — needs no
    version bump; see DESIGN.md §9 for the full schema. *)

val version : int
(** The protocol version this build speaks: [1]. *)

(** {1 Addresses} *)

type address =
  | Tcp of string * int  (** host, port; port 0 binds an ephemeral port *)
  | Local of string  (** Unix-domain socket path *)

val address_of_string : string -> (address, string) result
(** [HOST:PORT], [:PORT] (loopback), or a filesystem path (anything
    containing [/], or with no [:]) for a Unix-domain socket. *)

val address_to_string : address -> string

(** {1 Errors} *)

type error_code =
  | Bad_request  (** malformed JSON or missing/ill-typed fields *)
  | Query_parse_error  (** ["query"] or ["q"] text that does not parse *)
  | Unknown_dataset
  | Unknown_solver
  | Unsupported  (** query outside the supported fragment, or grounding too large *)
  | Overloaded  (** admission queue full — retry later *)
  | Deadline_exceeded
  | Budget_exhausted  (** the request's own CPU budget ran out *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Internal

type error = { code : error_code; message : string }

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option
val error : error_code -> string -> error

(** {1 Requests} *)

type dataset_spec = {
  ds_name : string;  (** [polls], [movielens] or [crowdrank] *)
  ds_size : int option;  (** item-domain scale; generator default when absent *)
  ds_sessions : int option;  (** session count; generator default when absent *)
  ds_seed : int option;  (** generator seed; default 42 *)
}

val dataset : ?size:int -> ?sessions:int -> ?seed:int -> string -> dataset_spec

type query_source =
  | Cq of Ppd.Query.t
      (** wire member ["query"]: the datalog fragment, evaluated by the
          engine's direct compile path (original schema) *)
  | Lang of { text : string; ast : Lang.Ast.t }
      (** wire member ["q"] (additive, still v1): full query-language
          text, compiled through the planner server-side; [text] is
          echoed verbatim on encode so the round-trip is exact *)

type eval = {
  dataset : dataset_spec;
  query : query_source;
  task : Engine.Request.task;
  solver : Hardq.Solver.t;
  budget : float;  (** CPU seconds per solver invocation; [<= 0] = none *)
  seed : int;
  timeout_ms : float option;  (** wall-clock deadline for this request *)
  per_session : bool;  (** include per-session marginals in the reply *)
  parallelism : [ `Inter | `Intra ] option;
      (** JSON field ["parallelism"]: ["inter"] or ["intra"]. [None]
          defers to the server's configured default. Answers are
          bit-identical either way. *)
  target_ci : float option;
      (** JSON field ["target_ci"] (additive, still v1): accuracy SLO —
          serve anytime until the confidence interval is at most this
          wide. Mutually exclusive with [deadline_ms]. *)
  deadline_ms : float option;
      (** JSON field ["deadline_ms"] (additive, still v1): accuracy SLO —
          serve the best estimate reachable within this wall span; expiry
          is a typed ["timeout"] status on a normal answer, {e not} a
          [Deadline_exceeded] error (that remains [timeout_ms]'s
          contract). *)
  stream : bool;
      (** JSON field ["stream"] (additive, still v1): emit NDJSON
          {!progress} frames before the terminal reply. Only meaningful
          on SLO-carrying requests; defaults to [false] so pipelined
          clients keep one-line-per-request framing. *)
}

val eval :
  ?task:Engine.Request.task ->
  ?solver:Hardq.Solver.t ->
  ?budget:float ->
  ?seed:int ->
  ?timeout_ms:float ->
  ?per_session:bool ->
  ?parallelism:[ `Inter | `Intra ] ->
  ?target_ci:float ->
  ?deadline_ms:float ->
  ?stream:bool ->
  dataset_spec ->
  Ppd.Query.t ->
  eval
(** Defaults mirror [Engine.Request.make]: Boolean task, [`Auto] solver,
    no budget, seed 42, no deadline, no SLO, no streaming, no
    per-session marginals, server's parallelism default. *)

val eval_lang :
  ?task:Engine.Request.task ->
  ?solver:Hardq.Solver.t ->
  ?budget:float ->
  ?seed:int ->
  ?timeout_ms:float ->
  ?per_session:bool ->
  ?parallelism:[ `Inter | `Intra ] ->
  ?target_ci:float ->
  ?deadline_ms:float ->
  ?stream:bool ->
  dataset_spec ->
  string ->
  (eval, string) result
(** Like {!eval} but for query-language text (the ["q"] wire member),
    parsed client-side so syntax errors surface before the round trip.
    The [task] applies only when the text states no task of its own; a
    non-[`Auto] [solver] acts as a planner hint when the text has no
    [using] clause. *)

type request = { id : Json.t option; op : op }

and op =
  | Eval of eval
  | Metrics  (** one-line JSON snapshot of the Obs registry *)
  | Ping

val request_to_json : request -> Json.t

val request_of_json : Json.t -> (request, error) result
(** Decode and validate: unknown ops, missing fields, bad solver names
    (the message enumerates [Hardq.Solver.valid_names]) and query syntax
    errors (with offsets) come back as typed errors carrying the
    request's id semantics — the caller replies with them directly. *)

(** {1 Replies} *)

type cache_stats = {
  answer_hits : int;  (** distinct inferences answered by the answer tier *)
  answer_misses : int;  (** distinct inferences this request solved *)
  sf_joins : int;
      (** distinct inferences joined from another in-flight request
          (single-flight dedup) *)
  term_hits : int;
  term_misses : int;  (** term-tier (IE-conjunction) traffic *)
  batch_id : int;  (** id of the engine batch that carried this request *)
  batch_size : int;  (** requests gathered into that batch *)
}
(** Wire field ["cache"], added in v1 as a non-breaking extension: a
    decoder that does not know it skips it, and decoding a reply from a
    pre-v1 server that omitted it yields [cache = None]. *)

type stats = {
  sessions : int;
  distinct : int;
  cache_hits : int;
  cache_misses : int;
  solver_calls : int;
  jobs : int;
  compile_s : float;
      (** engine-side plan preparation before solving; the query is
          compiled (Algorithm 2) before the engine is called, so this is
          not its compile time (see {!Engine.Response.stats}) *)
  bound_s : float;
  solve_s : float;
  total_s : float;  (** engine wall time *)
  queue_s : float;  (** admission-queue wait, server side *)
  server_s : float;  (** dequeue-to-reply wall time, server side *)
  cache : cache_stats option;
}

type answer =
  | Probability of float
  | Expectation of float
  | Ranked of (Ppd.Value.t list * float) list

(** How an SLO-carrying (anytime) request concluded. *)
type anytime_status =
  | Final  (** SLO met; degenerate [ci_lo = ci_hi] when answered exactly *)
  | Timeout
      (** the SLO deadline or draw cap expired first — the answer is the
          best estimate so far, {e not} an error *)

type anytime = {
  any_status : anytime_status;
  any_rounds : int;  (** sampling rounds run (0 on the exact route) *)
  any_draws : int;  (** cumulative world draws *)
  any_ci_lo : float;
  any_ci_hi : float;
}
(** Wire field ["anytime"], added in v1 as a non-breaking extension with
    the same contract as ["cache"]: absent on plain evaluations and from
    pre-anytime servers ([None] after decode), rejected when present but
    malformed. *)

type shards_block = {
  sh_count : int;  (** shard count of the serving cluster *)
  sh_answered : int;  (** shards that returned a full answer *)
  sh_timed_out : int;  (** shards whose per-shard deadline expired *)
  sh_errored : int;  (** shards that replied with an error *)
  sh_pruned : int;
      (** shards skipped by the two-phase top-k bound (their upper
          bound fell below the running k-th answer) — 0 for
          Count-Session / Boolean *)
  sh_deep : int;  (** shards deep-queried in top-k phase 2 *)
  sh_exact : bool;
      (** [true]: every needed shard answered and the answer equals the
          unsharded evaluation bit-for-bit. [false]: some shards failed
          and the answer is a typed lower bound over the shards that
          did answer — never silently claimed exact. *)
}
(** Wire field ["shards"], added in v1 as a non-breaking extension with
    the same contract as ["cache"]/["anytime"]: absent from unsharded
    and pre-sharding servers ([None] after decode), rejected when
    present but malformed. *)

type reply = { reply_id : Json.t option; result : result_body }

and result_body =
  | Answer of {
      answer : answer;
      per_session : (Ppd.Value.t list * float) list option;
      stats : stats;
      anytime : anytime option;
      shards : shards_block option;
    }
  | Metrics_snapshot of Json.t
  | Pong
  | Err of error

type progress = {
  progress_id : Json.t option;  (** the request's ["id"], echoed *)
  round : int;
  draws : int;
  estimate : float;
  ci_lo : float;
  ci_hi : float;
}
(** One NDJSON progress frame of a streaming anytime evaluation: a
    ["frame":"progress"] line emitted {e before} the terminal reply,
    never instead of it. Not a reply (no ["ok"] member); pipelined
    streaming clients route frames by the echoed id and keep reading
    until the line with ["ok"] arrives. Only requests that set
    ["stream"] receive frames. *)

val reply_to_json : reply -> Json.t

val reply_of_json : Json.t -> (reply, string) result
(** Like {!request_of_json}, tolerates an absent ["v"] and unknown
    members but rejects a ["v"] other than {!version} or a malformed
    ["cache"]/["anytime"] block. *)

val progress_to_json : progress -> Json.t

val progress_of_json : Json.t -> (progress, string) result
(** Fails on anything that is not a well-formed progress frame; use
    {!is_progress} to route a line first. *)

val is_progress : Json.t -> bool
(** [true] iff the line is a progress frame (["frame":"progress"]). *)

val progress_of_frame : ?id:Json.t -> Hardq.Anytime.frame -> progress
(** Tag an engine sampling frame with a request id for the wire. *)

val slo_of_eval : eval -> Engine.Request.slo option
(** The engine-level SLO a request's additive members project onto
    ([target_ci] wins when a hand-built record carries both). *)

val plan_of_eval : db:Ppd.Database.t -> eval -> (Plan.t, error) result
(** Compile an eval's query against [db]: {!Plan.of_query} with [solver]
    for a CQ, {!Plan.compile} with [solver] as hint for a text. A query
    outside the supported fragment or past the grounding cap is an
    [Unsupported] error. The plan depends on the query, [solver] and
    [db] alone; [Registry.request] caches it per dataset. *)

val request_of_plan :
  budget:float ->
  ?deadline:float ->
  parallelism:[ `Inter | `Intra ] ->
  eval ->
  Plan.t ->
  Engine.Request.t
(** The engine request of an eval over its compiled plan, with the
    caller's resolved [budget], [deadline] and [parallelism]: what
    {!Engine.Request.make} builds for the same CQ. *)

val anytime_of_engine : Engine.anytime -> anytime option
(** Project a serve outcome onto the wire block. [None] for [`Cancelled]
    — the client that could have read it is gone. *)

val shards_of_response : Engine.Response.t -> shards_block option
(** Project the engine's scatter-gather accounting
    ([Response.stats.shards]) onto the wire block; [None] when the
    request ran unsharded. *)

val key_of_session : Ppd.Database.session -> Ppd.Value.t list
(** A session's wire identity: its key attribute values. *)

val answer_of_response : Engine.Response.t -> answer
(** Project an engine response onto the wire answer (session keys only —
    models do not cross the wire). *)

val stats_of_response :
  queue_s:float -> server_s:float -> Engine.Response.t -> stats

val snapshot_to_json : Obs.snapshot -> Json.t
(** The Obs registry snapshot as one JSON object
    [{"counters": {...}, "histograms": {...}}] — the single-line
    equivalent of [Obs.json_of_snapshot]. *)

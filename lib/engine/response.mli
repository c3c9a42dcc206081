(** Evaluation responses: the answer for the requested task plus the
    per-session marginals and an execution-statistics record. *)

type stats = {
  sessions : int;  (** sessions surviving compilation (filters + joins) *)
  distinct : int;
      (** distinct (model, labeling, pattern-union, solver) inference
          requests among them — the §6.4 grouping factor *)
  cache_hits : int;  (** distinct requests answered by the engine cache *)
  cache_misses : int;  (** distinct requests this request solved itself *)
  sf_joins : int;
      (** distinct requests answered by joining another in-flight
          request's solve (single-flight dedup) instead of re-solving *)
  term_hits : int;
  term_misses : int;
      (** term-tier traffic: inclusion-exclusion conjunction terms
          answered by / published to the shared sub-answer store *)
  solver_calls : int;  (** solver invocations actually performed *)
  jobs : int;  (** domains the engine computes with *)
  batch_id : int;
      (** id of the {!Engine.eval_batch} call that carried this request
          (every eval gets one; a solo eval is a batch of one) *)
  batch_size : int;  (** number of requests in that batch *)
  compile_s : float;
      (** wall seconds the engine spent preparing the request's plan
          (labeling snapshot) before solving. The plan itself is
          compiled (Algorithm 2) when the request is built —
          {!Request.make} under an [Obs] span named ["compile"],
          {!Plan.compile} by the caller — so that time is not in this
          record. *)
  bound_s : float;  (** wall seconds computing top-k upper bounds *)
  solve_s : float;  (** wall seconds in the (parallel) solve phase *)
  total_s : float;  (** wall seconds end to end *)
  metrics : Obs.snapshot;
      (** What moved in the {!Obs} registry during this evaluation
          (per-solver DP states, prune counts, sampler draws, cache
          activity...). A process-wide delta, so concurrent evaluations
          on other engines bleed into it. *)
  shards : Shard.summary option;
      (** Per-shard accounting when the engine has more than one
          session partition ([Config.shards > 1]) and the request has
          pattern rows: which shards answered, timed out or errored,
          the cross-shard top-k prune counts, and whether the answer is
          exact or a typed lower bound. [None] exactly when
          [Config.shards = 1], and for rank-atom plans, which are
          evaluated row by row outside the placement. *)
}

type answer =
  | Probability of float  (** Boolean task: [Pr(Q | D)] *)
  | Expectation of float  (** Count task: expected satisfying sessions *)
  | Ranked of (Ppd.Database.session * float) list
      (** Top-k task: the k best sessions, descending probability *)

type t = {
  answer : answer;
  per_session : (Ppd.Database.session * float) list;
      (** Per-session probabilities in session order. For a pruned top-k
          task, only the sessions that were evaluated exactly (in
          session order too). *)
  stats : stats;
}

val answer_float : t -> float
(** The probability/expectation, or the best ranked probability (0 when the
    ranking is empty). *)

val ranked : t -> (Ppd.Database.session * float) list
(** The ranking of a top-k answer; [[]] for other tasks. *)

val pp_stats : Format.formatter -> stats -> unit
(** Human-readable rendering (the CLI stats footer): two lines, plus the
    metrics delta when one was captured. *)

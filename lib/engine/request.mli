(** Evaluation requests: one record describes a complete job for
    {!Engine.eval}, replacing the optional-argument soup of the legacy
    [Ppd.Eval] entry points. *)

type topk_strategy =
  [ `Naive  (** evaluate every session exactly, then sort *)
  | `Edges of int  (** k-edge upper bounds first (paper §4.3.2) *) ]

type task =
  | Boolean  (** [Pr(Q | D) = 1 - Π_s (1 - Pr(Q | s))] *)
  | Count  (** Count-Session: [Σ_s Pr(Q | s)] *)
  | Top_k of { k : int; strategy : topk_strategy }
      (** Most-Probable-Session: the [k] sessions likeliest to satisfy the
          query, optionally pruned with upper bounds. *)

type slo =
  [ `Deadline of float
    (** relative wall-clock span in seconds: stream whatever precision is
        reachable within it and return the best estimate at expiry with a
        typed [`Deadline] status instead of an error *)
  | `Ci_width of float
    (** target confidence-interval width: stream frames until the CI is
        at most this wide *) ]
(** Accuracy SLO for {!Engine.serve}. Either form routes hard-verdict
    requests onto the resumable anytime sampler; tractable requests are
    still answered exactly (an exact answer satisfies any SLO). *)

type t = {
  plan : Plan.t;
      (** What the engine executes, compiled and routed when the request
          was built: the database is [plan.db], the solver
          {!Plan.routed_solver}, the per-session work [plan.lowered]. *)
  task : task;
  budget : float;
      (** CPU seconds per solver invocation; [<= 0] means no limit. Budgets
          are measured on process CPU time, which aggregates across domains,
          so under a parallel pool they expire proportionally faster. *)
  seed : int;
      (** Root of the deterministic per-session RNG splits. Only approximate
          solvers consume randomness; results are a pure function of the
          request (and engine cache state), independent of the pool size. *)
  deadline : float option;
      (** Absolute wall-clock instant (on the [Util.Timer.wall] scale) after
          which the evaluation aborts with [Util.Timer.Out_of_time]. Checked
          between solver invocations, so it bounds requests made of many
          small calls that the per-invocation [budget] cannot — the server
          maps per-request deadlines onto both. *)
  slo : slo option;
      (** Accuracy SLO honored by {!Engine.serve} (anytime frames,
          graceful degradation); {!Engine.eval} ignores it. *)
}

val make :
  ?task:task ->
  ?solver:Hardq.Solver.t ->
  ?budget:float ->
  ?seed:int ->
  ?deadline:float ->
  ?parallelism:[ `Intra ] ->
  ?slo:slo ->
  Ppd.Database.t ->
  Ppd.Query.t ->
  t
(** A request over a datalog CQ: {!of_plan} of
    [Plan.of_query ~solver db query], so the query is compiled
    (Algorithm 2) here, under an [Obs] span named ["compile"], not by the
    engine, and raises
    {!Ppd.Compile.Unsupported} or {!Ppd.Compile.Grounding_too_large}
    here too. Defaults: [task = Boolean], [solver =
    Hardq.Solver.default_exact], [budget = 0.] (no limit), [seed = 42],
    no deadline, no SLO. [parallelism] is ignored, as in {!of_plan}. *)

val of_plan :
  ?task:task ->
  ?budget:float ->
  ?seed:int ->
  ?deadline:float ->
  ?parallelism:[ `Intra ] ->
  ?slo:slo ->
  Plan.t ->
  t
(** A request carrying a compiled plan: the database and solver come
    from the plan ({!Plan.routed_solver}), and [task] defaults to the
    plan's own task ([count …] → [Count], [top(k) …] → naive [Top_k],
    aggregates → [Count] with the engine folding by the plan task). An
    explicit [task] override only takes effect when the plan's task is
    a plain [prob] with no modal — the wire protocol's [task] member
    composing with a [{"q": …}] query.

    [parallelism] is ignored: there is one parallelism mode, in which
    sessions fan out across the engine pool and each solver call may
    share its own inclusion–exclusion terms, DP layers and draw chunks
    into it. Only perfbench's traced replay ([perfbench/perfbench.ml])
    passes it; the argument goes when that call stops passing it. *)

val boolean : task
val count : task

val top_k : ?strategy:topk_strategy -> int -> task
(** [top_k k] with the 1-edge pruning strategy by default. *)

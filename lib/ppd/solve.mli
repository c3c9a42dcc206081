(** The engine-independent sequential reference for query evaluation over
    a RIM-PPD (paper §3.1–§3.2).

    Sessions are independent, so for a Boolean CQ
    [Pr(Q | D) = 1 - Π_s (1 - Pr(Q | s))]; Count-Session is
    [Σ_s Pr(Q | s)].

    This is deliberately the naive single-threaded pipeline
    (compile → per-session solver dispatch, one shared RNG threaded in
    session order) with no pool, no cross-query cache and no statistics:
    the differential baseline the engine and the QA oracle compare
    against, and the "naive" column of the grouping experiment
    (Figure 15). Production callers should use [Engine.eval] — with an
    exact solver it returns bit-identical floats to these entry points
    (it is also re-exported there as [Engine.Reference]).

    [group:true] (the default) evaluates each distinct
    (model, pattern-union) request once and replicates the result over
    the sessions sharing it — the paper's §6.4 optimization. {!top_k}
    is likewise the sequential reference for Most-Probable-Session; the
    engine's [Request.Top_k] additionally bounds in parallel and caches
    exact evaluations. *)

val per_session :
  ?solver:Hardq.Solver.t ->
  ?group:bool ->
  Database.t ->
  Query.t ->
  Util.Rng.t ->
  (Database.session * float) list
(** Probability that the query holds in each surviving session, in
    session order. Defaults: [solver] = exact auto, [group] = true. *)

val boolean_prob :
  ?solver:Hardq.Solver.t ->
  ?group:bool ->
  Database.t ->
  Query.t ->
  Util.Rng.t ->
  float
(** [Pr(Q | D)]. *)

val count_sessions :
  ?solver:Hardq.Solver.t ->
  ?group:bool ->
  Database.t ->
  Query.t ->
  Util.Rng.t ->
  float
(** Expected number of sessions satisfying [Q] (Count-Session). *)

(** {1 Most-Probable-Session (sequential reference)} *)

type topk_strategy = [ `Naive | `Edges of int ]
(** [`Naive] evaluates every session exactly; [`Edges e] prunes with the
    [e]-edge relaxation's upper bounds (§4.3.2). *)

type topk_report = {
  results : (Database.session * float) list;  (** k best, descending *)
  n_exact : int;  (** exact solver invocations *)
  bound_time : float;  (** seconds computing upper bounds *)
  exact_time : float;  (** seconds in exact evaluations *)
}

val top_k :
  ?solver:Hardq.Solver.t ->
  ?strategy:topk_strategy ->
  k:int ->
  Database.t ->
  Query.t ->
  Util.Rng.t ->
  topk_report
(** Most-Probable-Session. With [`Edges e], upper bounds are computed for
    every session with the [e]-edge relaxation, sessions are evaluated
    exactly in descending bound order, and evaluation stops as soon as
    [k] exact probabilities exceed every remaining bound by more than
    {!Hardq.Upper_bound.prune_slack}. *)

(** Exact marginal probability that a RIM-distributed ranking extends a
    partial order over items.

    This is the "RIM matching" primitive (Kenig et al., AAAI'18) that the
    sub-ranking view of §5.2 reduces to: a dynamic program over RIM
    insertions whose state is the vector of absolute positions of the
    partial order's items inserted so far; a tracked item is only ever
    inserted where the edges it closes hold, and an item's position is
    dropped once it and all its neighbours are in. Exponential in the number
    of constrained items (state space ≲ m^|items|) but polynomial in [m]
    for a fixed item count, so it is practical for the small orders of
    itemwise patterns at any [m].

    It serves answers: {!General} routes every inclusion–exclusion term
    whose nodes each name exactly one item of σ here (DESIGN.md §13.5).
    Layers are {!Dp_table.Flat} tables (first-insertion order, so the
    sum is a pure function of the model and the order); there is no
    boxed kernel, so the flat == boxed contract holds trivially for the
    terms this solver answers. Each call counts [solver.po.calls] and
    [solver.po.dp_states], and its layers count in [dp.flat.*]. *)

val prob : ?budget:Util.Timer.budget -> Rim.Model.t -> Prefs.Partial_order.t -> float
(** [prob model po] = Pr(τ consistent with [po]) for τ ~ model. Items of
    [po] must belong to σ ([Invalid_argument] otherwise; {!General}
    answers a term whose node no item of σ carries with 0 before it gets
    here). The empty order, and any order without edges, has
    probability 1. May raise [Util.Timer.Out_of_time] or
    {!Dp_table.State_explosion}. *)

val prob_subranking : ?budget:Util.Timer.budget -> Rim.Model.t -> Prefs.Ranking.t -> float
(** Probability that τ is consistent with a sub-ranking (chain). *)

val max_states : int ref
(** Safety valve (default 2_000_000 states per layer);
    {!Dp_table.State_explosion} past it. *)

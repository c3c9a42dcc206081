(** Exact marginal probability that a RIM-distributed ranking extends a
    partial order over items.

    This is the "RIM matching" primitive (Kenig et al., AAAI'18) that the
    sub-ranking view of §5.2 reduces to: a dynamic program over RIM
    insertions whose state is the vector of absolute positions of the
    partial order's items inserted so far, pruning states that already
    violate an edge. Exponential in the number of constrained items
    (state space ≲ m^|items|), so it is practical for the small
    sub-rankings produced by pattern decomposition, at any [m]. *)

val prob : ?budget:Util.Timer.budget -> Rim.Model.t -> Prefs.Partial_order.t -> float
(** [prob model po] = Pr(τ consistent with [po]) for τ ~ model. Items of
    [po] must belong to the model's domain ([Invalid_argument]
    otherwise). The empty order has probability 1. *)

val prob_subranking : ?budget:Util.Timer.budget -> Rim.Model.t -> Prefs.Ranking.t -> float
(** Probability that τ is consistent with a sub-ranking (chain). *)

val max_states : int ref
(** Safety valve (default 2_000_000 states); {!Dp_table.State_explosion}
    past it. *)

(** The bipartite solver (paper §4.3, Algorithm 4).

    Handles unions of bipartite patterns: patterns whose every node is
    either only an edge source (L-type) or only an edge target (R-type).
    For such patterns an embedding exists iff every edge [(l, r)]
    satisfies the min/max constraint [α(l) < β(r)], so the DP over RIM
    insertions only tracks the min position per L-conjunction and the max
    position per R-conjunction.

    The optimized solver additionally prunes, per state, edges that are
    already satisfied and patterns that are satisfied (probability moved
    to the output immediately) or violated (dropped), shrinking both the
    tracked label set and the state space ("situations" of §4.3.1). *)

exception Unsupported of string

val prob :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  float
(** Exact marginal probability of a union of bipartite patterns.
    Isolated nodes are checked statically (a pattern whose isolated node
    has no matching item is unsatisfiable and is dropped). Raises
    {!Unsupported} if some pattern is not bipartite. With [par], large DP
    layers expand in parallel; the result is bit-identical to the
    sequential run (see {!Dp_table.Layers}). *)

val prob_basic :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  float
(** The basic variant of §4.3.1: tracks every label throughout and only
    classifies states at the end. Exponentially more states; kept as the
    ablation baseline. *)

val prob_constraint_sets :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  (Prefs.Pattern.node * Prefs.Pattern.node) list list ->
  float
(** Probability that at least one constraint set holds, where a
    constraint set is a conjunction of min/max constraints
    [α(left) < β(right)]. This is the primitive used for upper bounds
    (§4.3.2): constraint sets built from transitive-closure edges of
    arbitrary patterns are valid here even when the source pattern is
    not bipartite. *)

val max_states : int ref
(** Safety valve shared by both variants (default 5_000_000 states);
    {!Dp_table.State_explosion} past it. *)

(** Upper bounds for pattern unions (paper §3.2 and §4.3.2), used by the
    Most-Probable-Session top-k optimization.

    Every edge [(l, r)] of the transitive closure of a pattern induces
    the necessary min/max constraint [α(l) < β(r)]; any subset of those
    constraints is a relaxation, so its probability upper-bounds the
    pattern's. Edges are ranked by the [ease] heuristic
    [ease(l, r | σ) = β(r | σ) - α(l | σ)] (positions in the reference
    ranking); the [k] hardest (smallest-ease) edges are kept. *)

val select_edges :
  k:int ->
  Prefs.Labeling.t ->
  Rim.Model.t ->
  Prefs.Pattern.t ->
  (Prefs.Pattern.node * Prefs.Pattern.node) list option
(** The [k] smallest-ease transitive-closure edges of the pattern;
    [None] when the pattern is statically unsatisfiable (some node
    without a witness). A pattern with no edges yields [[]]. *)

val upper_bound :
  ?budget:Util.Timer.budget ->
  k:int ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  float
(** Exact probability of the relaxed union: with [k = 1] a two-label
    union solved by {!Two_label}; with [k >= 2] a union of constraint
    sets solved by {!Bipartite.prob_constraint_sets}. Guaranteed
    [>= Pr(G)]. *)

val prune_slack : float
(** How far a bound must fall below a running k-th best exact
    probability before top-k skips its session (or shard): skip only
    when [bound < kth -. prune_slack]. A bound and an exact probability
    come from different DPs that add up the same mass in different
    orders, so an admissible bound can round a few ulps below the value
    it bounds; a strict
    [bound < kth] would then prune a session that belongs in the top k.
    [1e-9], the QA oracle's admissibility tolerance. *)

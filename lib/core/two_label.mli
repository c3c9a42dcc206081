(** The two-label solver (paper §4.2, Algorithm 3).

    Computes the marginal probability of a union of two-label patterns
    [G = ∪_i {l_i ≻ r_i}] over a labeled RIM model by dynamic programming
    over RIM insertions: states ⟨α, β⟩ track the minimum position of each
    left ("L-type") conjunction and the maximum position of each right
    ("R-type") conjunction, keeping only states that still *violate* every
    pattern. The result is the mass that leaves those states for
    "satisfied", added up as it leaves (a sum of positive terms, so it
    keeps its relative accuracy however small it is); the insertion
    positions that satisfy a state form a prefix and a suffix read off
    its words, so only the others are stepped. A tracked position is
    forgotten once every edge it takes part in is dead (neither side
    has an item left to insert: Algorithm 4's violated-edge rule), so
    states that differ only there merge. *)

exception Unsupported of string
(** Raised when the union is not a union of two-label patterns. *)

val prob :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  float
(** Exact marginal probability. May raise [Util.Timer.Out_of_time].
    With [par], large DP layers expand in parallel; the result is
    bit-identical to the sequential run (see {!Dp_table.Layers}). [kernel]
    selects the DP layout (default {!Kernel.Flat}); both kernels are
    byte-identical (see {!Kernel}). *)

val prob_edges :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  (Prefs.Pattern.node * Prefs.Pattern.node) list ->
  float
(** Same computation on a bare list of (left, right) conjunction pairs —
    the representation used by the upper-bound machinery (§4.3.2), where
    each pair is read as the constraint [α(left) < β(right)]. *)

val max_states : int ref
(** Safety valve: raise {!Dp_table.State_explosion} if the DP frontier
    exceeds this many states (default 5_000_000). *)

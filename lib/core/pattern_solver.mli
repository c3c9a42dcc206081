(** Exact marginal probability of a single label pattern over a labeled
    RIM model — the subroutine the paper's general solver delegates to
    LTM [Cohen et al., SIGMOD'18] for.

    Our reimplementation dispatches:
    - bipartite patterns (including all two-label patterns) go to the
      min/max dynamic program of {!Bipartite};
    - general DAG patterns (nodes that are both edge sources and targets,
      e.g. chains) use a signature DP over RIM insertions: a state is the
      ordered list of (absolute position, node-match bitmask) of inserted
      *relevant* items (items matching at least one node), with interval
      grouping of irrelevant insertions and immediate accept of states
      whose signature already embeds the pattern. Exact, but exponential
      in the worst case — the same role the paper assigns to LTM. *)

exception Unsupported of string
(** Raised for patterns with more than 62 nodes. *)

val prob :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern.t ->
  float
(** Exact [Pr(g | σ, Π, λ)]. May raise [Util.Timer.Out_of_time] or
    {!Dp_table.State_explosion} (see {!max_states}). With [par], large
    DP layers expand in parallel; the result is bit-identical to the
    sequential run (see {!Dp_table.Layers}). *)

val prob_general :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?kernel:Kernel.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern.t ->
  float
(** Forces the signature DP even for bipartite patterns (used to test the
    two implementations against each other). *)

val max_states : int ref
(** Safety valve (default 2_000_000 states). *)

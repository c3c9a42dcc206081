(** MIS-AMP (paper §5.4): multiple importance sampling with AMP proposals
    centered at the greedy posterior modals of Algorithm 5.

    [estimate] handles a single sub-ranking; [estimate_union] is the
    "full" variant that builds proposals for *every* sub-ranking of the
    decomposed pattern union and all their (capped) modals — tractable
    only for small unions, which is why the paper introduces
    MIS-AMP-lite (see {!Mis_amp_lite}). *)

val estimate :
  ?modal_cap:int ->
  n_per:int ->
  Rim.Mallows.t ->
  Prefs.Ranking.t ->
  Util.Rng.t ->
  Estimate.t
(** Pr(τ ⊨ ψ): proposals AMP(modal_t, φ, ψ) for each greedy modal. *)

val estimate_union :
  n_per:int ->
  Rim.Mallows.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  Estimate.t
(** Pr(τ ⊨ G) with proposals for all sub-rankings (each proposal
    conditions on its own ψ, so every sample satisfies G).
    At most 16 modals per sub-ranking; the best modal of every
    sub-ranking is kept, then the closest of the rest up to 256
    proposals overall. *)

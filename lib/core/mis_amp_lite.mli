(** MIS-AMP-lite (paper §5.5): MIS-AMP restricted to [d] proposal
    distributions, with compensation for the pruned probability mass.

    The pattern union is decomposed into [w] sub-rankings, sorted by the
    greedy distance estimate of Algorithm 6. Modals are generated for the
    closest sub-rankings until [d] proposals are available; the [d]
    modals closest to the Mallows center become the proposals. The raw
    MIS estimate [p] is scaled by two compensation factors:

    - [c_ψ = Σ_{ψ∈S} φ^dist(ψ,σ) / Σ_{ψ∈S⁺} φ^dist(ψ,σ)] over all vs
      selected sub-rankings (estimated distances), and
    - [c_r = Σ_{r∈M} φ^dist(r,σ) / Σ_{r∈M⁺} φ^dist(r,σ)] over available
      vs selected modals (exact distances).

    Returned values are clipped to [0, 1]: compensation assumes the
    sub-ranking union is (near-)disjoint and can overshoot on heavily
    overlapping unions (see DESIGN.md, "Fidelity notes"). *)

type plan
(** The reusable construction state: decomposition, sorted sub-rankings
    and a lazily grown modal pool. Preparing a plan is the "overhead"
    phase of Figure 13a; estimates with increasing [d]
    (see {!Mis_amp_adaptive}) reuse it. *)

val prepare :
  ?subrank_cap:int ->
  Rim.Mallows.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  plan
(** [subrank_cap] bounds the decomposition ({!Prefs.Decompose.subrankings}).
    Modal branching is at most 16 per sub-ranking. *)

val plan_of_subrankings : Rim.Mallows.t -> Prefs.Ranking.t list -> plan
(** Plan over an explicit sub-ranking union (skips decomposition). *)

val plan_width : plan -> int
(** Number of sub-rankings [w]. *)

val plan_overhead : plan -> float
(** Seconds spent so far on decomposition + modal search. *)

val unsatisfiable : plan -> bool
(** True when the union has no sub-ranking (probability 0). *)

val estimate_with_plan :
  ?compensate:bool ->
  plan ->
  d:int ->
  n_per:int ->
  Util.Rng.t ->
  Estimate.t
(** Run the sampling phase with [d] proposals. [compensate] defaults to
    [true]; passing [false] reproduces the paper's Figure 11c/12
    ablation. The reported [overhead_time] is the *incremental* plan
    work triggered by this call. *)

val estimate :
  ?compensate:bool ->
  d:int ->
  n_per:int ->
  Rim.Mallows.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  Estimate.t
(** One-shot prepare + estimate; [overhead_time] covers the full
    construction. *)

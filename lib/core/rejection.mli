(** Rejection sampling (§5.1): draw rankings from the model and count how
    many match the pattern union. Simple, unbiased, and hopeless for rare
    events — the baseline of Figure 9. *)

val run :
  ?par:Util.Par.t ->
  n:int ->
  Rim.Model.t ->
  (Prefs.Ranking.t -> bool) ->
  Util.Rng.t ->
  Estimate.t
(** The fraction of [n] draws from the model that satisfy the predicate.
    Runs of more than 4096 samples split into fixed 4096-sample chunks,
    each with a child RNG derived sequentially from [rng] up front; the
    chunks may then evaluate in parallel ([par]) with an estimate that
    depends only on the seed and [n], never on the width. Smaller runs
    consume [rng] directly (the historical stream). *)

val estimate :
  ?par:Util.Par.t ->
  n:int ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  Estimate.t
(** {!run} with the event "matches the pattern union". *)

val samples_until :
  exact:float ->
  rel_tol:float ->
  max_samples:int ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  [ `Converged of int | `Exhausted ]
(** Number of samples until the running estimate first falls within
    [rel_tol] relative error of the known [exact] value (and at least 10
    samples were drawn) — the paper's optimistic stopping rule for RS in
    Figure 9. *)

(** Rejection sampling (§5.1): draw rankings from the model and count how
    many match the pattern union. Simple, unbiased, and hopeless for rare
    events — the baseline of Figure 9.

    Every world-draw loop of the library — {!run}, {!samples_until} and
    each {!Anytime} round — goes through {!draw}. *)

type count =
  | Any  (** one hit per world in which at least one session matched *)
  | Each  (** one hit per session that matched, summed over the world *)

val chunk_size : int
(** 4096: the longest run {!draw} takes from the caller's RNG directly. *)

val draw :
  ?par:Util.Par.t ->
  count:count ->
  n:int ->
  (Rim.Model.t * (Prefs.Ranking.t -> bool)) array ->
  Util.Rng.t ->
  int
(** [draw ~count ~n sessions rng] draws [n] worlds — one ranking from
    every session's model per world, in array order, whatever the
    predicates answer (under [Any] only the predicate calls stop at a
    world's first hit) — and returns the hit count. Runs of at most
    {!chunk_size} worlds consume [rng] directly (the historical stream);
    longer runs split into fixed {!chunk_size}-world chunks, each with a
    child RNG derived sequentially from [rng] up front, that may evaluate
    in parallel on [par] and are summed in chunk order, so the count
    depends only on the seed and [n], never on the width. *)

val run :
  ?par:Util.Par.t ->
  n:int ->
  Rim.Model.t ->
  (Prefs.Ranking.t -> bool) ->
  Util.Rng.t ->
  Estimate.t
(** The fraction of [n] draws from the model that satisfy the predicate:
    {!draw} over one session. *)

val union_event : Prefs.Labeling.t -> Prefs.Pattern_union.t -> Prefs.Ranking.t -> bool
(** The event "matches the pattern union". *)

val estimate :
  ?par:Util.Par.t ->
  n:int ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  Estimate.t
(** {!run} with {!union_event}. *)

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
    Figure 9. Draws one world at a time through {!draw}. *)

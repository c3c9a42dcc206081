(** The Mallows model MAL(σ, φ), φ ∈ [0, 1], as a special case of RIM
    (paper §2.2): [Π(i, j) = φ^(i-j) / (1 + φ + … + φ^i)] (0-based). *)

type t

val make : center:Prefs.Ranking.t -> phi:float -> t
(** Raises [Invalid_argument] unless [0 <= phi <= 1]. With [phi = 0]
    the distribution is a point mass on [center]; with [phi = 1] it is
    uniform. *)

val center : t -> Prefs.Ranking.t
val phi : t -> float
val m : t -> int

val to_rim : t -> Model.t
(** The equivalent RIM model (memoized). *)

val log_z : t -> float
(** Log normalization constant: [log Π_{i=1..m} (1 + φ + … + φ^{i-1})]. *)

val prob : t -> Prefs.Ranking.t -> float
(** [φ^d(σ,τ) / Z]; computed from the Kendall distance, O(m log m). *)

val log_prob : t -> Prefs.Ranking.t -> float
val sample : t -> Util.Rng.t -> Prefs.Ranking.t
val recenter : t -> Prefs.Ranking.t -> t
(** Same dispersion, new center. *)

val pp : Format.formatter -> t -> unit

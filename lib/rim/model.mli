(** The Repeated Insertion Model RIM(σ, Π) (paper §2.2, Algorithm 1).

    Insertion step [i] (0-based, [i = 0..m-1]) inserts item [σ_i] into the
    current ranking of length [i] at position [j ∈ 0..i] with probability
    [Π(i, j)]. *)

type t

val make : sigma:Prefs.Ranking.t -> pi:float array array -> t
(** [make ~sigma ~pi] requires [pi.(i)] to have length [i+1], entries
    nonnegative and summing to 1 (within 1e-9); raises
    [Invalid_argument] otherwise. *)

val sigma : t -> Prefs.Ranking.t

val positions : t -> int array
(** σ's inverse, built once with the model: entry [x] is the 0-based
    position of item [x] in σ, or [-1] when σ lacks [x]; its length is
    one past σ's largest item. The solvers read it on every call, so it
    is shared and must not be written. *)

val m : t -> int
(** Number of items. *)

val pi : t -> int -> int -> float
(** [pi t i j] is [Π(i, j)]. *)

val blit_pi_row : t -> int -> float array -> unit
(** [blit_pi_row t i dst] copies row [Π(i, 0..i)] into [dst.(0..i)]:
    the DP kernels read one layer's insertion probabilities from a local
    float array instead of one boxed {!pi} call per expansion. *)

val insertion_positions : t -> Prefs.Ranking.t -> int array
(** [insertion_positions t r] recovers the unique insertion vector
    [j_0..j_{m-1}] that produces [r]: [j_i] is the number of items
    among [σ_0..σ_{i-1}] placed before [σ_i] in [r]. Requires [r] to be
    over exactly the items of [σ]. *)

val prob : t -> Prefs.Ranking.t -> float
(** Exact probability of a ranking: the product of its insertion
    probabilities. *)

val log_prob : t -> Prefs.Ranking.t -> float
val sample : t -> Util.Rng.t -> Prefs.Ranking.t
(** Algorithm 1. *)

val uniform : Prefs.Ranking.t -> t
(** RIM with all insertions uniform: the uniform distribution over
    rankings of [σ]'s items. *)

val pp : Format.formatter -> t -> unit

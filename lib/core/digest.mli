(** Structural digests of solved sub-problems (64-bit FNV-1a, fold
    style). A digest fingerprints the canonical form of a sub-problem —
    (solver, RIM model, the items carrying each label the union names,
    pattern-union) plus the request seed for sampler estimates — so the
    engine can derive per-sub-problem RNG streams, group wire requests by
    plan shape, and expose stable ids. The engine folds its answer key
    with the primitives below, so a sampler's stream follows exactly what
    the key holds.

    Digests are {e fingerprints}, not identities: any store whose
    correctness depends on equality (the engine's sub-answer cache) must
    key on the full canonical structure and treat the digest as an
    auxiliary tag, so a collision can never alias two answers. *)

type t = int64

val empty : t

val int : t -> int -> t
val bool : t -> bool -> t

val float : t -> float -> t
(** Folds the IEEE bit pattern ([Int64.bits_of_float]), so [-0.] and
    [0.] digest differently — the cache contract is bitwise. *)

val string : t -> string -> t
val ints : t -> int list -> t

val to_int : t -> int
(** Truncation to a native [int] (the top bit is lost); used to derive
    keyed RNG sub-streams via {!Util.Rng.derive}. *)

val to_hex : t -> string
(** 16 lowercase hex digits; the wire-visible form. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Composite helpers}

    Each folds the canonical form the corresponding solver layer already
    uses: solvers by constructor and parameters, models by (center
    permutation, phi bits). *)

val solver : t -> Solver.t -> t
(** Folds the constructor {e and} every parameter (sample counts,
    depths, tolerances) — [Solver.to_string] alone would alias
    estimators that differ only in their parameters. *)

val model : t -> Rim.Mallows.t -> t

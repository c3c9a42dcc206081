(** Small descriptive-statistics helpers used by estimators and benches. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Unbiased sample variance (0 for fewer than two points). *)

val stddev : float array -> float
(** Square root of {!variance}. *)

val median : float array -> float
(** Median (does not mutate the input). *)

val percentile : float array -> float -> float
(** [percentile a p] with [p] in [0,100], nearest-rank with linear
    interpolation. *)

val clopper_pearson_ci : ?alpha:float -> k:int -> n:int -> unit -> float * float
(** [clopper_pearson_ci ~k ~n ()] — the exact (Clopper–Pearson)
    two-sided interval for a binomial proportion from [k] successes in
    [n] trials: its bounds are the [p] at which [Pr(X >= k)] and
    [Pr(X <= k)] reach [alpha/2], so it covers the true proportion with
    probability at least [1 - alpha] at every [p] and every [n], the
    tails near 0 and 1 included. [alpha] defaults to the two-sided
    level of a z = 5 normal interval, 2(1 - Φ(5)) ≈ 5.7e-7 — a
    deliberately wide band: the QA oracle wants sampling-noise false
    alarms to be negligible, not a 95% interval. [k = 0] gives a lower
    bound of 0, [k = n] an upper bound of 1, [n = 0] yields [(0, 1)].
    Bounds are rounded outward, never inward. *)

val relative_error : exact:float -> float -> float
(** [relative_error ~exact est] is [|est - exact| / |exact|]; when
    [exact = 0.] it is [0.] if [est = 0.] and [infinity] otherwise. *)

val minimum : float array -> float
val maximum : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}
(** One-shot summary of a sample. *)

val summarize : float array -> summary

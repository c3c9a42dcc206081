(** Resumable anytime estimation for the serving layer (ROADMAP item 4).

    A sampler [t] owns the nontrivial sessions of one query — each a
    model plus a "does this ranking satisfy the session's event"
    predicate — and advances in {e rounds}. Round [r] draws
    [round_draws r] worlds (64·2^(r−1), capped at
    {!Rejection.chunk_size} = 4096) through {!Rejection.draw}, each world
    sampling every session's model once from [rng_of_round r] itself
    (a round never reaches the kernel's chunk split). The frame after
    round [r] therefore depends only on the seed derivation and [r] —
    never on pool width, scheduling, or how many further rounds the
    caller runs — which is what makes frame sequences byte-replayable
    and gives the prefix property: a tighter stopping target extends,
    never rewrites, a looser target's frames.

    Statistics. For [Boolean] a world is one Bernoulli trial on the
    answer itself (success iff {e any} session matches, i.e. on
    1 − Π(1 − p_s)), so the exact binomial (Clopper–Pearson) interval
    {!Util.Stats.clopper_pearson_ci} applies directly, at the two-sided
    level of a z = 5 normal band. Unlike a normal or Wilson interval it
    keeps that coverage near 0 and 1 (few hits or few misses), where
    answers of real queries often sit. For [Count] the S per-world
    session trials are pooled: the estimate is S·p̂ and the interval is
    the pooled interval rescaled by S — conservative for the non-iid
    pool, because a Poisson-binomial count is less dispersed than the
    binomial with the same mean.

    Raw interval widths are {e not} monotone as p̂ drifts with more
    draws, so each frame reports the running {e intersection envelope}
    of the cumulative intervals: lo_k = max(lo_{k−1}, cp_lo_k),
    hi_k = min(hi_{k−1}, cp_hi_k). Widths are non-increasing by
    construction and the envelope contains the truth whenever every
    per-round interval does (at this level a miss is astronomically
    rare); an empty intersection collapses to its midpoint. *)

type task = Boolean | Count

type frame = {
  round : int;  (** 1-based index of the round that produced this frame *)
  draws : int;  (** cumulative world draws *)
  estimate : float;  (** point estimate, clamped into the envelope *)
  ci_lo : float;
  ci_hi : float;
}

val width : frame -> float
(** [ci_hi - ci_lo]. *)

type t

val make :
  task:task ->
  sessions:(Rim.Model.t * (Prefs.Ranking.t -> bool)) array ->
  rng_of_round:(int -> Util.Rng.t) ->
  t
(** Sessions whose event is statically impossible (probability 0) must
    be excluded by the caller: they change neither answer. An empty
    [sessions] array yields degenerate exact frames (answer 0). *)

val step : t -> frame
(** Run the next round and return the cumulative frame. *)

val rounds : t -> int
(** Completed rounds. *)

val draws : t -> int
(** Cumulative world draws. *)

val last : t -> frame option
(** The most recent frame, if any round has run. *)

val round_draws : int -> int
(** The fixed schedule: [round_draws r] worlds in round [r] (1-based);
    64·2^(r−1) capped at {!Rejection.chunk_size}. Exposed for cost
    accounting and tests. *)

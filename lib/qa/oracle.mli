(** The differential oracle: every applicable solver must agree.

    The paper's five-plus evaluation strategies all compute the same
    marginal [Pr(G)] (Eq. 2), so cross-solver divergence on any input is
    a bug by construction. For each compiled per-session pattern union
    the oracle runs the full applicability matrix (see DESIGN.md §10):

    - brute-force [m!] enumeration (the ground truth, [m ≤ 7]);
    - the general inclusion–exclusion solver — always;
    - [`Auto] dispatch — always (must match whatever it picked);
    - the two-label DP — unions classified [Two_label];
    - the optimized and basic bipartite DPs — unions up to [Bipartite];
    - every one of those DP solvers again under a 2-domain work-sharing
      pool ("…-par"), under the boxed reference kernel ("…-boxed") and
      under both ("…-par-boxed") — these must match the sequential
      flat-kernel row bit for bit, not merely within [eps] (the two
      layouts are the same computation; DESIGN.md §13);
    - any [extra] solvers injected by the caller (scratch copies under
      test, future backends).

    Exact answers must agree within [eps]; sampling answers are judged
    against {!Util.Stats.wilson_ci} (rejection sampling is binomial) or
    a flat absolute band (importance-sampling estimators). On top of
    agreement, metamorphic invariants: answers lie in [[0,1]];
    [k]-edge upper bounds are admissible; widening a pattern union can
    only increase its probability (and the union bound caps it); a
    two-label pattern with unique distinct witnesses satisfies
    [Pr(a ≻ b) + Pr(b ≻ a) = 1]; grouped, ungrouped, and engine
    evaluation agree bit-identically on the query level.

    The engine row is itself a matrix: with the sub-answer cache on, a
    cold and a warm evaluation at pool widths 1 and 2 must each be
    byte-identical to the cache-off reference — for the exact Boolean
    and Count tasks and (when [approx]) a MIS-lite sampler, whose
    per-sub-problem RNG is derived from the cache digest precisely so
    cache warmth cannot shift its stream — and the warm pass must serve
    entirely from the store (zero misses). *)

type solver_fn = Rim.Model.t -> Prefs.Labeling.t -> Prefs.Pattern_union.t -> float
(** Extra solver under test: same contract as [Hardq.Solver.exact_prob]
    applied to one union. *)

type report = {
  sessions : int;  (** compiled per-session requests *)
  nontrivial : int;  (** requests with a satisfiable pattern union *)
  checks : int;  (** individual assertions that ran *)
  answer : float;  (** canonical Boolean answer ([Engine.eval], exact) *)
}

type result =
  | Pass of report
  | Fail of { check : string; detail : string }
  | Skip of string
      (** Case outside the supported/tractable envelope (compile
          [Unsupported], grounding cap, solver timeout or state
          explosion) — not a verdict. *)

val check :
  ?eps:float ->
  ?budget:float ->
  ?approx:bool ->
  ?extra:(string * solver_fn) list ->
  Ppd.Case.t ->
  result
(** Run the matrix on one case. [eps] (default 1e-9) bounds exact
    disagreement; [budget] (default 0.5 CPU s) bounds each solver
    invocation; [approx:false] (default [true]) skips the sampling
    solvers — shrinking uses that to keep iterations fast. Failure
    details carry the session index and both values at full precision.

    A case carrying a [deadline] gets one more row: it is served under a
    [`Deadline] SLO and must come back as a normal typed answer — never
    an exception — bit-identical to the plain evaluation when the exact
    route answered, inside the final CI when sampling ran (met or timed
    out). *)

val fails : ?eps:float -> ?budget:float -> ?extra:(string * solver_fn) list -> Ppd.Case.t -> bool
(** [true] iff {!check} (without sampling solvers) returns [Fail] — the
    shrinker's persistence predicate. *)

val lang_diff : ?eps:float -> ?budget:float -> Ppd.Case.t -> result * string list
(** Language-frontend/planner differential sweep on one case ([make
    lang-diff]): the case's datalog query must parse as language text,
    round-trip through the canonical printer, match
    {!Lang.Ast.of_query} exactly, and — for the base query plus the
    [count], [top(2)], [possibly], [certainly] and [sum(key 0)]
    wrappers — the compiled {!Plan.t} evaluated by the engine must
    answer bit-identically to the direct solver path for the same
    task ([eps] only enters the synthesized rank-atom checks, where the
    O(m²) DP is compared against brute-force enumeration, and the
    [using rejection] sample leaf, which is checked for determinism,
    range and a gross-error band instead). The second component lists
    the {!Plan.node_kinds} exercised, in no particular order — the
    corpus sweep unions them to assert routing coverage. *)

val shard_diff : ?budget:float -> Ppd.Case.t -> result
(** Sharded scatter-gather sweep on one case ([make shard-diff]): the
    case is evaluated through engines at shard counts 1, 2 and 4, and
    the Boolean, Count-Session and top-k answers (both strategies) must
    be byte-identical to the sequential [Ppd.Solve] reference — exact
    [=], no eps. The scatter-gather accounting is asserted on top: a
    healthy cluster reports every shard answered and the answer exact,
    and the two-phase top-k neither deep-queried a shard whose phase-1
    upper bound fell below the final k-th answer nor pruned one whose
    bound survived it (prune-soundness both ways). *)

val anytime : ?eps:float -> ?budget:float -> Ppd.Case.t -> result
(** Anytime serving sweep on one case ([make anytime-diff]): with a
    forced sampling solver under a [`Ci_width] SLO, (a) every streamed
    frame's CI contains the exact answer, (b) CI widths are
    non-increasing frame to frame (exactly — the envelope guarantees
    it), (c) pool widths 1 and 2 emit byte-identical frame sequences
    (compared as wire-encoded NDJSON progress lines), and a looser
    target's sequence is a byte-for-byte prefix of a tighter target's.
    A final row serves with an exact solver: tractable verdicts must
    answer as a frameless point interval bit-identical to [Engine.eval];
    hard verdicts sample and must keep exact inside the final CI. *)

(** The differential oracle: every applicable solver, and every way the
    engine can be asked, must agree.

    The paper's five-plus evaluation strategies all compute the same
    marginal [Pr(G)] (Eq. 2), so cross-solver divergence on any input is
    a bug by construction. {!check} is the one entry point; on one case
    it runs (see DESIGN.md §10):

    {b Per-union solver matrix.} For each compiled per-session pattern
    union:
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
    - on every IE term that {!Hardq.General.route} does not send to the
      signature DP (RIM-matched and zero terms), {!Hardq.Pattern_solver}
      run directly — sequential, pooled, boxed, pooled and boxed — must
      give the same bytes and agree with the routed term at 1e-12
      relative, so the signature DP keeps its gates on itemwise inputs
      the general rows no longer send it;
    - any [extra] solvers injected by the caller (scratch copies under
      test, future backends).

    Exact answers must agree within [eps], and where the reference is
    below 1e-6 also within 1e-12 relative (an absolute [eps] cannot see
    a wrong answer near 0); sampling answers are judged
    against {!Util.Stats.clopper_pearson_ci} (rejection sampling is
    binomial) or a flat absolute band (importance-sampling estimators).
    On top of agreement, metamorphic invariants: answers lie in
    [[0,1]]; [k]-edge upper bounds are admissible; widening a pattern
    union can only increase its probability (and the union bound caps
    it); a two-label pattern with unique distinct witnesses satisfies
    [Pr(a ≻ b) + Pr(b ≻ a) = 1]; grouped and ungrouped sequential
    evaluation agree bit for bit.

    {b Engine lattice.} jobs {1, 2} × shards {1, 2, 4} × cache {cap0
    (both store tiers at capacity 0), cold, warm} × source {[Request.make] over the datalog CQ,
    [Request.of_plan] over the parsed text}, each cell evaluating
    Boolean, Count-Session and top-3 (naive, 1-edge and 2-edge bounds).
    Every answer must equal the sequential {!Ppd.Solve} reference byte
    for byte, ranked session keys included; the warm Boolean and Count
    passes must miss nothing; sharded cells must report every shard
    answered, and two-phase top-k must neither deep-query a shard whose
    bound fell below the k-th answer nor prune one whose bound did not.
    With [approx], a MIS-lite row must return one value in every cell
    (its per-sub-problem RNG is derived from the cache digest precisely
    so cache warmth, pool width and placement cannot shift its stream).

    {b SLO rows}, at pool widths 1 and 2: a case carrying a [deadline]
    is served under it and must come back as a typed answer — the plain
    evaluation when the exact route answered, containing it when
    sampling ran. With [approx], a [`Ci_width 0.15] serve under an exact
    solver answers tractable verdicts as a frameless point interval;
    and under a forced rejection sampler every streamed CI contains the
    exact answer and nests inside the previous frame's (so widths never
    widen), pool widths 1 and 2 emit byte-identical frames (as wire
    NDJSON) and a looser target's frames are a byte prefix of a tighter
    one's.

    {b Language rows.} The query parses as language text, round-trips
    through the canonical printer and equals {!Lang.Ast.of_query};
    [possibly] / [certainly] answer the indicators of the exact answer,
    [sum(key 0)] replicates the aggregate fold, [using rejection]
    compiles to exactly the solver table's [rejection] leaf and (run at
    2000 draws per session) is deterministic, in range and within 0.25
    of exact ([approx] only),
    and synthesized rank atoms route to the O(m²) DP and to enumeration
    and agree with brute force. *)

type solver_fn = Rim.Model.t -> Prefs.Labeling.t -> Prefs.Pattern_union.t -> float
(** Extra solver under test: same contract as [Hardq.Solver.exact_prob]
    applied to one union. *)

type report = {
  sessions : int;  (** compiled per-session requests *)
  nontrivial : int;  (** requests with a satisfiable pattern union *)
  checks : int;  (** individual assertions that ran *)
  answer : float;  (** canonical Boolean answer ([Engine.eval], exact) *)
  kinds : string list;
      (** {!Plan.node_kinds} of every plan compiled, plus {!rim_matching}
          when a general-kind union sent an IE term to RIM matching,
          sorted — a corpus sweep unions them to assert routing
          coverage *)
}

val rim_matching : string
(** ["rim-matching"]: the coverage tag of {!report.kinds} for a case
    whose served general-kind union solves an IE term with
    {!Hardq.Po_solver}. *)

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
    rows (sampling solvers, the MIS-lite lattice row, the accuracy-SLO
    serves and the [using rejection] leaf) — shrinking uses that to keep
    iterations fast and sampling-independent. Failure details name the
    check, the lattice cell or session, and both values at full
    precision. *)

val fails : ?eps:float -> ?budget:float -> ?extra:(string * solver_fn) list -> Ppd.Case.t -> bool
(** [true] iff {!check} (without sampling solvers) returns [Fail] — the
    shrinker's persistence predicate. *)

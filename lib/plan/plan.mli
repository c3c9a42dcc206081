(** Tractability-aware query planner: {!Lang.Ast.t} → typed plan.

    [compile] desugars the language's preference sugar against a
    database, rewrites each disjunct through {!Ppd.Compile} (Algorithm
    2), classifies the shape of the resulting per-session pattern
    unions (two-label ⊂ bipartite ⊂ general, §4) and routes the query
    to an execution leaf:

    - [Exact solver] — a polynomial exact solver; emitted exactly when
      [`Auto] would dispatch every session to that solver, so the
      engine's answers (and sub-result cache traffic) are bit-identical
      to the direct {!Ppd.Solve} path;
    - [Union_ie] — general inclusion–exclusion over the pattern union,
      the fallback for queries outside the tractable families;
    - [Rank_poly] — a single [rank(x) ⋈ k] atom: the O(m²) insertion
      DP of {!Hardq.Rank_dp}, no enumeration at any [m];
    - [Enumerate] — rank atoms mixed with patterns at small [m]:
      brute-force enumeration of the m! rankings;
    - [Sample est] — a sampling estimator, either requested via
      [using <name>] or forced by rank atoms at large [m].

    The leaf sits under a root node determined by the task ([Boolean],
    [Aggregate], [Top_k]); {!explain} renders the tree, the
    tractability verdict and the reason for it. *)

type leaf =
  | Exact of Hardq.Solver.exact
  | Union_ie
  | Rank_poly
  | Enumerate
  | Sample of Hardq.Solver.approx

type verdict =
  | Tractable of string  (** polynomial exact evaluation; why *)
  | Hard of string  (** exact but (worst-case) exponential; why *)
  | Estimated of string  (** sampling estimate; why *)

type cost = {
  sessions : int;  (** sessions the plan evaluates *)
  disjuncts : int;
  union_patterns : int;  (** max patterns in one per-session union *)
  union_nodes : int;  (** max total pattern nodes in one union *)
  ie_terms : float;  (** Σ_s (2^{z_s} − 1): inclusion–exclusion terms *)
}

(** Per-session truth of one disjunct's non-rank part. *)
type pred_part =
  | Always  (** rank-only disjunct *)
  | Never  (** session filtered out or statically unsatisfiable *)
  | Union of Prefs.Pattern_union.t

type pred_session = {
  session : Ppd.Database.session;
  parts : (pred_part * Prefs.Rank_pred.t list) list;  (** one per disjunct *)
}

(** What the engine executes. [Patterns] lowers to the same per-session
    (session, union option) requests {!Ppd.Compile.compile} emits — for
    a single pattern-only disjunct it {e is} that list, so answers are
    bit-identical to the direct path; disjunctions merge the per-session
    unions ([Pr(d₁ ∨ d₂ | s)] is one union probability) in
    {!Prefs.Pattern_union.canonical} form. [Predicates] keeps the
    disjuncts separate for ranking-level evaluation (rank leaves). *)
type lowered =
  | Patterns of Ppd.Compile.request list
  | Predicates of pred_session list

type t = private {
  ast : Lang.Ast.t;
  db : Ppd.Database.t;
  task : Lang.Ast.task;
  modal : Lang.Ast.modal option;
  leaf : leaf;
  verdict : verdict;
  cost : cost;
  shapes : string list;  (** structural observations, for {!explain} *)
  p_rel : string;
      (** name of the one preference relation whose sessions the plan
          ranges over (every disjunct must agree on it); the engine
          places those sessions on shards by it *)
  lowered : lowered;
}

val compile :
  ?grounding_cap:int -> ?hint:Hardq.Solver.t -> Ppd.Database.t -> Lang.Ast.t -> t
(** Compile and classify. [hint] acts like a [using] clause when the
    query has none (the clause wins otherwise); hinting an exact solver
    routes [Patterns] plans to it, hinting an estimator routes to
    [Sample]. Raises {!Ppd.Compile.Unsupported} on queries outside the
    plannable fragment (head variables, non-constant rank items,
    disjuncts over different p-relations, MIS estimators over rank
    atoms…) and {!Ppd.Compile.Grounding_too_large} like the direct
    path. *)

val routed_solver : t -> Hardq.Solver.t
(** The solver the engine runs [Patterns] plans with: exactly what
    [`Auto] dispatches to for the classified shape, so plan execution
    is bit-identical to direct evaluation. *)

val with_leaf : t -> leaf -> t
(** Override the routing decision, keeping everything else — the seam
    the differential suite uses to plant a misclassification. *)

val of_query : solver:Hardq.Solver.t -> Ppd.Database.t -> Ppd.Query.t -> t
(** The plan of a datalog CQ evaluated with [solver]: {!compile} of
    {!Lang.Ast.of_query} with [solver] as the hint, and the leaf then
    forced to exactly [solver] ([`Auto] stays [`Auto], so the engine
    dispatches per union and keys its caches on the solver asked for).
    Raises like {!compile} — {!Ppd.Compile.Unsupported} for head
    variables and the rest of the fragment {!Ppd.Compile} rejects. *)

val digest : t -> Hardq.Digest.t
(** Structural identity of the normalized plan: conjunct order inside a
    disjunct and disjunct order are both sorted away, so semantically
    equal queries digest identically. *)

val leaf_name : leaf -> string
val root_name : t -> string
(** The root node: ["boolean"], ["aggregate"] or ["top-k"]. *)

val node_kinds : t -> string list
(** [[root_name; leaf_name leaf]] — the coverage axis the QA corpus
    sweep asserts over. *)

val verdict_string : verdict -> string
(** ["tractable"], ["hard"] or ["estimated"] (the reason dropped). *)

val explain : t -> string
(** Multi-line rendering: canonical query text, plan tree, verdict with
    reason, shapes and cost. *)

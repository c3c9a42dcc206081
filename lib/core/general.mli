(** The general exact solver (paper §4.1): inclusion–exclusion over the
    pattern union, solving each pattern conjunction (IE term) with a
    single-pattern solver.

    [Pr(g1 ∪ … ∪ gz) = Σ_{∅≠S⊆[z]} (-1)^(|S|+1) Pr(∧_{i∈S} g_i)].

    Each term is routed by {!route}: a term whose every node is carried
    by exactly one item of σ is a partial order over items, solved by
    RIM matching ({!Po_solver}, polynomial in [m] for a fixed item
    count); a term with a node no item of σ carries, or whose pinned
    edges form a self-loop or a cycle, is 0; every other term goes to
    the signature DP ({!Pattern_solver}, the paper's LTM role).
    {!Po_solver} runs sequentially, so [par] reaches only the term
    fan-out and {!Pattern_solver} terms. *)

type route =
  | Zero  (** the term is 0 without a DP *)
  | Items of Prefs.Partial_order.t  (** RIM matching over these items *)
  | Labels  (** the signature DP ({!Pattern_solver}) *)

val route : Rim.Model.t -> Prefs.Labeling.t -> Prefs.Pattern.t -> route
(** The route of one term. Membership in the model's domain is read
    through σ's inverse ({!Rim.Model.positions}), the rule {!Conj}
    uses, so an item the labeling knows but σ lacks carries nothing. *)

val solve_term :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern.t ->
  float
(** [Pr(c)] for one term [c], solved as {!route} says. *)

val conjunctions : Prefs.Pattern_union.t -> (Prefs.Pattern.t * int) list
(** All [2^z - 1] pattern conjunctions with their subset sizes, in
    increasing subset-size order. The conjunction of a subset is the
    disjoint union of its patterns' nodes and edges. *)

val prob :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?cache:Term_cache.t ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  float
(** Exact marginal probability of the union. Cost is dominated by the
    largest conjunction; exponential in [z]. The alternating sum is
    returned raw: floating-point cancellation can leave residue slightly
    outside [0, 1], which {!Solver.prob} clamps (with a debug log).

    One pass over the {!conjunctions}: each term is looked up in
    [cache], the misses are solved (with [par], concurrently, and each
    term's DP layers may fan out further into the same pool) and
    published to [cache], and the signed terms are added up in
    {!conjunctions}' order on the calling domain, so the result is
    bit-identical to the sequential run.

    [cache] shares solved terms across calls: lookups and stores happen
    on the calling domain (see {!Term_cache}). The caller is responsible
    for scoping the cache to a single (model, labeling). *)

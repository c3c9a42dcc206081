(** Label patterns: partial orders over label conjunctions (paper §2.1).

    A pattern is a DAG whose nodes are non-empty conjunctions of labels
    (e.g. [{M, JD}]) and whose edge [(u, v)] states that an item matching
    node [u] must be preferred to an item matching node [v]. *)

type label = int

type node = label list
(** Conjunction of labels an item must all carry; sorted, distinct,
    non-empty. *)

type t

val make : nodes:node list -> edges:(int * int) list -> t
(** [make ~nodes ~edges] builds a pattern. Edge endpoints index [nodes].
    Raises [Invalid_argument] on out-of-range endpoints, self-loops,
    cyclic edge sets, or an empty node conjunction. Duplicate edges are
    removed. Isolated nodes are allowed (they still require a witness). *)

val two_label : left:node -> right:node -> t
(** The pattern [{left ≻ right}] with a single edge. *)

val chain : node list -> t
(** [chain [n1; n2; n3]] is n1 ≻ n2 ≻ n3. *)

val n_nodes : t -> int
val node : t -> int -> node
val nodes : t -> node array
val edges : t -> (int * int) list
val labels : t -> label list
(** All distinct labels mentioned. *)

val succs : t -> int -> int list
val preds : t -> int -> int list
val topological_order : t -> int list

val is_two_label : t -> bool
(** Exactly two nodes joined by one edge. *)

val bipartite_roles : t -> [ `L | `R | `Iso ] array option
(** [Some roles] when every node is used only as an edge source ([`L]),
    only as a target ([`R]), or not at all ([`Iso]); [None] when some
    node is both a source and a target (a chain), i.e. the pattern is
    not bipartite. *)

val is_bipartite : t -> bool

val closure_edges : t -> (int * int) list
(** The edges closed under transitivity, sorted: the edges of the
    pattern's transitive closure, whose nodes are the pattern's own. *)

val conjunction : t list -> t
(** Disjoint union of node sets and their edges: the pattern [g1 ∧ … ∧ gk]
    used by the inclusion–exclusion general solver (§4.1). *)

val equal : t -> t -> bool
val compare : t -> t -> int

val canonical : t -> t
(** Deterministic node reordering (edges remapped accordingly): the same
    partial order under a canonical index permutation, so two patterns
    built from permuted-but-equal conjuncts compare {!equal}. Sources
    stay ahead of their targets, so {!is_two_label} and
    {!bipartite_roles} classify the canonical form identically. *)


val pp : Format.formatter -> t -> unit
val pp_named : (label -> string) -> Format.formatter -> t -> unit

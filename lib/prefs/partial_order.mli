(** Strict partial orders over items, represented as DAGs.

    A partial order [υ] is given by a set of items and directed edges
    [a -> b] meaning "[a] is preferred to [b]". The module rejects cyclic
    edge sets at construction time. *)

type item = int
type t

val make : edges:(item * item) list -> t
(** [make ~edges] builds the partial order whose item set is exactly the
    items mentioned in [edges], deduplicating edges and dropping
    self-loops is NOT done: a self-loop or cycle raises [Invalid_argument]. *)

val make_with_items : items:item list -> edges:(item * item) list -> t
(** Like {!make} but with possibly extra isolated items. *)

val make_opt : items:item list -> edges:(item * item) list -> t option
(** Like {!make_with_items}, but [None] where it would raise: the edges
    hold a self-loop or a cycle, so no ranking extends them. *)

val empty : t
val items : t -> item list
(** Sorted, distinct. *)

val edges : t -> (item * item) list
(** Deduplicated, sorted. *)

val size : t -> int
(** Number of items. *)

val is_empty : t -> bool

val succs : t -> item -> item list
(** Direct successors (items this one must precede). *)

val preds : t -> item -> item list

val transitive_closure : t -> t
(** Same items; edges closed under transitivity. *)

val union : t -> t -> t option
(** Merge of the two orders; [None] if the merged relation is cyclic. *)

val of_chain : item list -> t
(** [of_chain [a;b;c]] is the total order a > b > c (as a partial order).
    Raises [Invalid_argument] on duplicates. *)

val consistent : t -> Ranking.t -> bool
(** [consistent po r] iff every edge [a -> b] has [a] before [b] in [r].
    All items of [po] must occur in [r] (raises [Not_found] otherwise). *)

val linear_extensions : t -> Ranking.t list
(** All linear extensions over exactly [items t] (the sub-rankings
    [Δ(υ)] of the paper). Exponential; use {!count_linear_extensions}
    or a cap when the order may be wide. *)

val count_linear_extensions : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

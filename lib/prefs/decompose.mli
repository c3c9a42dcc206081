(** Decomposition of label-pattern unions into item-level objects
    (paper §5.2, Figure 3):

    pattern union G  →  union of partial orders (one per embedding choice
    of items for nodes)  →  union of sub-rankings (linear extensions of
    each partial order over its own items).

    A ranking satisfies G iff it satisfies at least one sub-ranking. *)

exception Too_many of string
(** Raised when a decomposition exceeds its cap; the message says which
    stage overflowed. *)

val embeddings : ?cap:int -> Labeling.t -> Pattern.t -> int array list
(** All choices of one item per pattern node such that the item carries
    the node's labels and the induced item relation is acyclic (choices
    placing the same item on both endpoints of an edge are discarded).
    [cap] (default 1_000_000) bounds the number of raw choices. *)

val partial_orders : ?cap:int -> Labeling.t -> Pattern.t -> Partial_order.t list
(** The deduplicated item-level partial orders [∆(g, λ)]. *)

val subrankings : ?cap:int -> Labeling.t -> Pattern_union.t -> Ranking.t list
(** The deduplicated sub-ranking union equivalent to [G]; [cap]
    (default 1_000_000) bounds the total number of sub-rankings. *)

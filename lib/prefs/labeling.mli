(** Labeling functions: map items to finite sets of labels.

    A label is an abstract integer id; the PPD layer maps attribute/value
    pairs to label ids. The inference layer only sees this module. *)

type item = int
type label = int
type t

val make : label list array -> t
(** [make a] labels item [i] with [a.(i)]. The item domain is
    [0 .. Array.length a - 1]. *)

val of_pairs : n_items:int -> (item * label) list -> t
(** Build from (item, label) association pairs. *)

val n_items : t -> int
val has : t -> item -> label -> bool
val has_all : t -> item -> label list -> bool

val items_with : t -> label -> item list
(** All items carrying the label, ascending. *)

val items_with_all : t -> label list -> item list
(** Items carrying every label in the (conjunction) list. *)

val all_labels : t -> label list
(** Every label that occurs, sorted. *)

val restrict_items : t -> int -> t
(** [restrict_items t m] keeps only items [0..m-1] (labels unchanged).
    Useful when truncating an item domain. *)

val pp : Format.formatter -> t -> unit

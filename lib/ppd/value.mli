(** Attribute values of the relational layer. *)

type t = Int of int | Str of string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val int : int -> t
val str : string -> t

val as_int : t -> int option

type op = Eq | Neq | Lt | Le | Gt | Ge

val op_to_string : op -> string

val flip_op : op -> op
(** The operator of the swapped comparison: [a < b] iff [b > a]. *)

val apply_op : op -> t -> t -> bool
(** Comparison across types: ints compare numerically, strings
    lexicographically; an int and a string never satisfy [Eq] and order
    ints before strings for the inequality operators. *)

(** Ordinary relations (o-relations) of a RIM-PPD. *)

type t

val make : name:string -> attrs:string list -> Value.t list list -> t
(** [make ~name ~attrs tuples]; every tuple must have [List.length attrs]
    values ([Invalid_argument] otherwise). *)

val name : t -> string
val attrs : t -> string array
val arity : t -> int
val tuples : t -> Value.t array list

val attr_index : t -> string -> int
(** Raises [Not_found] for an unknown attribute. *)

val column : t -> int -> Value.t list
(** Distinct values of a column, sorted. *)

val select : t -> (Value.t array -> bool) -> Value.t array list
val pp : Format.formatter -> t -> unit

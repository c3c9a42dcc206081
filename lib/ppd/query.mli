(** Conjunctive queries over a RIM-PPD (paper §1, §3.1).

    A Boolean CQ has an empty head and a body of:
    - preference atoms [P(s1, s2; x; y)] — in session [s…], item [x] is
      preferred to item [y];
    - relational atoms [R(t1, …, tk)] over the item relation or other
      o-relations;
    - comparison atoms [v op c] between a variable and a constant.

    Identifier convention (Datalog-style): lowercase identifiers are
    variables, capitalized identifiers and literals are constants, [_] is
    a wildcard. *)

type term = Var of string | Const of Value.t | Wildcard

type atom =
  | Pref of { rel : string; session : term list; left : term; right : term }
  | Rel of { rel : string; terms : term list }
  | Cmp of { lhs : term; op : Value.op; rhs : term }

type t = { name : string; head : string list; body : atom list }
(** [head] lists the answer variables; Boolean CQs have an empty head.
    Non-Boolean queries are answered by {!Answers}, which grounds the head
    variables and evaluates each instantiation. *)

val make : ?name:string -> ?head:string list -> atom list -> t
(** Raises [Invalid_argument] on an empty body, a body without preference
    atoms, or a head variable that does not occur in the body. *)

val substitute : t -> (string * Value.t) list -> t
(** Replace variables by constants throughout the body; substituted head
    variables are removed from the head. *)

val pref_atoms : t -> (string * term list * term * term) list
val rel_atoms : t -> (string * term list) list
val cmp_atoms : t -> (term * Value.op * term) list

val vars : t -> string list
(** All variables, sorted. *)

val item_terms : t -> term list
(** Distinct terms appearing as a preference-atom endpoint, in first-use
    order. *)

val term_to_string : term -> string
(** A term in {!Parser}'s concrete syntax; string constants are quoted. *)

val atom_to_string : atom -> string
(** An atom in {!Parser}'s concrete syntax, as {!to_string} writes it. *)

val to_string : t -> string
(** The query in {!Parser}'s concrete syntax. String constants are always
    quoted, so [Parser.parse (to_string q)] reproduces [q] exactly — the
    canonical form used by the wire codec and for logging. (Strings
    containing a double quote or backslash have no concrete-syntax
    representation; they cannot be produced by the parser either.) *)

val pp_term : Format.formatter -> term -> unit
val pp : Format.formatter -> t -> unit

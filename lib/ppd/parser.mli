(** Concrete syntax for conjunctive queries, and the lexer and atom rules
    that the query language ([Lang.Parser]) extends: both frontends read
    terms and datalog atoms with the same code, so a datalog text means
    the same thing in either.

    Grammar (Datalog-flavoured, mirroring the paper's notation):

    {v
      query  ::= head ":-" atom ("," atom)* "."?
      head   ::= IDENT "(" [var ("," var)*] ")"
      atom   ::= IDENT "(" terms ")"                    (* relational atom *)
               | IDENT "(" terms ";" term ";" term ")"  (* preference atom *)
               | term OP term                         (* comparison *)
      terms  ::= term ("," term)*
      term   ::= "_" | IDENT | INT | STRING
      OP     ::= "=" | "!=" | "<>" | "<" | "<=" | ">" | ">="
    v}

    An identifier is a letter, ['_'] or ['\''] followed by letters,
    digits, ['_'], ['\''], and ['-'] where the next character is a letter
    (so solver names such as [mis-amp-lite] are one identifier, and
    [x-1] is still [x] followed by the integer [-1]). A lone ['_'] is the
    wildcard.

    In term position an identifier that starts with an uppercase letter
    is a string constant; any other identifier is a variable. Quoted
    strings are string constants, integers are int constants. There are
    no reserved words here: the query language's keywords are ordinary
    variables inside terms.

    Example (the paper's Q2):
    [Q() :- P(_, _; c1; c2), C(c1, D, _, _, e, _), C(c2, R, _, _, e, _).] *)

type error = { pos : int; msg : string }
(** A positioned syntax error; [pos] is a byte offset into the input. *)

val error_to_string : error -> string
(** ["<msg> at offset <pos>"]. *)

exception Parse_error of error

(** {1 Lexer} *)

type token =
  | Ident of string
  | Int of int
  | Str of string
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Dot
  | Turnstile  (** [:-] *)
  | Underscore  (** the wildcard term *)
  | Op of Value.op
  | Eof

val token_to_string : token -> string
(** For error messages: ["identifier \"x\""], ["'('"], … *)

type lexeme = { tok : token; pos : int }

(** {1 Parser state and the shared rules}

    A cursor over the lexemes of one input; the rules below advance it
    and raise {!Parse_error} on failure. *)

type state = { toks : lexeme array; mutable i : int }
(** [toks] ends with {!Eof}; [i] may be saved and restored to backtrack. *)

val start : string -> state
(** Tokenize the whole input. Raises {!Parse_error} on an unterminated
    string or a character outside the language. *)

val peek : state -> lexeme
val peek2 : state -> lexeme
(** The lexeme after {!peek}; both clamp at {!Eof}. *)

val advance : state -> unit

val fail : int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail pos fmt] raises {!Parse_error} at [pos]. *)

val expect : state -> token -> string -> unit
(** [expect st tok what] consumes [tok] or fails with
    ["expected <what>, found <token>"]. *)

val term : state -> Query.term
val terms : state -> Query.term list

val atom : state -> Query.atom
(** A relational, preference or comparison atom. *)

val header : state -> string * string list
(** [NAME(v1, …, vn) :-]: the query name and its head variables, which
    must be lowercase identifiers. *)

(** {1 Whole queries} *)

val parse : string -> Query.t
(** Raises {!Parse_error}. *)

val parse_result : string -> (Query.t, string) result
(** Errors rendered by {!error_to_string}. *)

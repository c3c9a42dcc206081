(** Recursive-descent parser for the query language (grammar in
    DESIGN.md §14). It extends {!Ppd.Parser}: the lexer, terms, datalog
    atoms and the header are {!Ppd.Parser}'s, so every text
    [Ppd.Parser.parse] accepts parses here to [Ast.of_query] of the same
    query, except a query named like a prefix ([count() :- …]) or a
    relation named [prefers], [rank] or [top], which this grammar reads
    as its own. *)

val parse : string -> (Ast.t, Ast.error) result
(** Parse one query. Errors carry the byte offset of the offending
    lexeme; [using <name>] is validated against
    [Hardq.Solver.of_string], so the error message enumerates exactly
    [Hardq.Solver.valid_names]. *)

val parse_exn : string -> Ast.t
(** Raises [Ppd.Parser.Parse_error]. *)

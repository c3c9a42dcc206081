(* Recursive-descent parser with one-token backtracking points, built on
   Ppd.Parser's lexer and its term and datalog-atom rules. Grammar (see
   DESIGN.md §14):

     query   ::= prefix* header? body '.'? EOF
     prefix  ::= 'count' | 'prob' | 'possibly' | 'certainly'
               | 'sum' '(' agg ')' | 'avg' '(' agg ')'
               | 'top' '(' INT ')'          (* task, not the rank atom *)
               | 'using' IDENT              (* Hardq.Solver.of_string *)
     agg     ::= 'key' INT | IDENT '.' IDENT
     header  ::= IDENT '(' [var (',' var)*] ')' ':-'   (* Ppd.Parser.header *)
     body    ::= conj ('or' conj)*
     conj    ::= atom ((',' | 'and') atom)*
     atom    ::= 'prefers' '(' term ',' term ')'
               | 'rank' '(' term ')' OP INT
               | 'top' '(' INT ',' term ')'
               | datalog-atom                       (* Ppd.Parser.atom *)

   Words are reserved only where this grammar reads them: the prefixes
   before the header, the sugar heads 'prefers(', 'rank(' and 'top(',
   and 'and'/'or' between atoms. Inside terms they are variables.

   Errors carry the offset of the offending lexeme, rendered by
   [Ast.error_to_string] as "<msg> at offset <pos>". *)

open Ppd.Parser

let expect_int st what =
  let l = peek st in
  match l.tok with
  | Int k ->
      advance st;
      k
  | t -> fail l.pos "expected %s, found %s" what (token_to_string t)

let expect_ident st what =
  let l = peek st in
  match l.tok with
  | Ident s ->
      advance st;
      s
  | t -> fail l.pos "expected %s, found %s" what (token_to_string t)

let rank_op_of_value_op = function
  | Ppd.Value.Le -> Prefs.Rank_pred.Le
  | Ppd.Value.Lt -> Prefs.Rank_pred.Lt
  | Ppd.Value.Ge -> Prefs.Rank_pred.Ge
  | Ppd.Value.Gt -> Prefs.Rank_pred.Gt
  | Ppd.Value.Eq -> Prefs.Rank_pred.Eq
  | Ppd.Value.Neq -> Prefs.Rank_pred.Neq

(* prefers(a, b) *)
let prefers_atom st =
  expect st Lparen "'(' after prefers";
  let left = term st in
  expect st Comma "',' between the items of prefers";
  let right = term st in
  expect st Rparen "')' closing prefers";
  Ast.Prefers { left; right }

(* rank(x) <= k *)
let rank_atom st =
  expect st Lparen "'(' after rank";
  let item = term st in
  expect st Rparen "')' closing rank";
  let l = peek st in
  match l.tok with
  | Op op ->
      advance st;
      let k = expect_int st "an integer rank bound" in
      Ast.Rank { item; op = rank_op_of_value_op op; k }
  | t -> fail l.pos "expected a comparison after rank(...), found %s" (token_to_string t)

(* top(k, x) — the atom form; top(k) alone is a task prefix. *)
let top_atom st =
  expect st Lparen "'(' after top";
  let k = expect_int st "an integer rank bound" in
  expect st Comma "',' between bound and item in top";
  let item = term st in
  expect st Rparen "')' closing top";
  Ast.Top { k; item }

let atom st =
  let sugar = (peek2 st).tok = Lparen in
  match (peek st).tok with
  | Ident "prefers" when sugar ->
      advance st;
      prefers_atom st
  | Ident "rank" when sugar ->
      advance st;
      rank_atom st
  | Ident "top" when sugar ->
      advance st;
      top_atom st
  | _ -> Ast.Datalog (Ppd.Parser.atom st)

let conj st =
  let rec more acc =
    match (peek st).tok with
    | Comma | Ident "and" ->
        advance st;
        more (atom st :: acc)
    | _ -> List.rev acc
  in
  more [ atom st ]

let body st =
  let rec more acc =
    if (peek st).tok = Ident "or" then begin
      advance st;
      more (conj st :: acc)
    end
    else List.rev acc
  in
  more [ conj st ]

let agg st =
  let l = peek st in
  match l.tok with
  | Ident "key" ->
      advance st;
      Ast.Key_index (expect_int st "a session-key index after 'key'")
  | Ident relation ->
      advance st;
      expect st Dot "'.' between relation and attribute";
      let attr = expect_ident st "an attribute name" in
      Ast.Joined { relation; attr }
  | t ->
      fail l.pos "expected 'key <index>' or '<relation>.<attribute>', found %s"
        (token_to_string t)

(* Task / modal / using prefixes, any order, at most one of each.
   'top' is ambiguous with the rank-atom sugar: 'top(k)' here, but
   'top(k, x)' starts the body — resolved by backtracking. *)
let prefixes st =
  let task = ref None and modal = ref None and using = ref None in
  let set what slot v pos =
    match !slot with
    | Some _ -> fail pos "duplicate %s prefix" what
    | None -> slot := Some v
  in
  let rec loop () =
    let l = peek st in
    match l.tok with
    | Ident "count" ->
        advance st;
        set "task" task Ast.Count l.pos;
        loop ()
    | Ident "prob" ->
        advance st;
        set "task" task Ast.Prob l.pos;
        loop ()
    | Ident (("sum" | "avg") as which) ->
        advance st;
        expect st Lparen "'(' after the aggregate";
        let a = agg st in
        expect st Rparen "')' closing the aggregate";
        set "task" task (if which = "sum" then Ast.Sum a else Ast.Avg a) l.pos;
        loop ()
    | Ident "top" -> (
        let save = st.i in
        advance st;
        match
          if (peek st).tok <> Lparen then None
          else begin
            advance st;
            match ((peek st).tok, (peek2 st).tok) with
            | Int k, Rparen ->
                advance st;
                advance st;
                Some k
            | _ -> None
          end
        with
        | Some k ->
            if k < 1 then fail l.pos "top(%d): the session count must be >= 1" k;
            set "task" task (Ast.Top_sessions k) l.pos;
            loop ()
        | None ->
            (* 'top(k, x)' — the rank atom; rewind and let the body have it *)
            st.i <- save)
    | Ident "possibly" ->
        advance st;
        set "modal" modal Ast.Possibly l.pos;
        loop ()
    | Ident "certainly" ->
        advance st;
        set "modal" modal Ast.Certainly l.pos;
        loop ()
    | Ident "using" -> (
        advance st;
        let l = peek st in
        let name = expect_ident st "a solver name after 'using'" in
        match Hardq.Solver.of_string name with
        | Ok s ->
            set "using" using s l.pos;
            loop ()
        | Error msg -> fail l.pos "%s" msg)
    | _ -> ()
  in
  loop ();
  (Option.value !task ~default:Ast.Prob, !modal, !using)

(* The header is optional (Q() :- when absent). The body never holds
   ':-', so IDENT '(' (IDENT | ',')* ')' ':-' ahead means a header, and
   Ppd.Parser.header then reads it with the datalog rules. *)
let has_header st =
  let tok j = st.toks.(min j (Array.length st.toks - 1)).tok in
  let rec vars j =
    match tok j with
    | Ident _ | Comma -> vars (j + 1)
    | Rparen -> tok (j + 1) = Turnstile
    | _ -> false
  in
  match (tok st.i, tok (st.i + 1)) with
  | Ident _, Lparen -> vars (st.i + 2)
  | _ -> false

let parse_exn src =
  let st = start src in
  let task, modal, using = prefixes st in
  let name, head = if has_header st then header st else ("Q", []) in
  let body = body st in
  if (peek st).tok = Dot then advance st;
  let l = peek st in
  if l.tok <> Eof then fail l.pos "trailing input: %s" (token_to_string l.tok);
  { Ast.name; head; task; modal; using; body }

let parse src = match parse_exn src with ast -> Ok ast | exception Parse_error e -> Error e

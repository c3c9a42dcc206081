type error = { pos : int; msg : string }

let error_to_string { pos; msg } = Printf.sprintf "%s at offset %d" msg pos

exception Parse_error of error

let fail pos fmt = Printf.ksprintf (fun msg -> raise (Parse_error { pos; msg })) fmt

type token =
  | Ident of string
  | Int of int
  | Str of string
  | Lparen
  | Rparen
  | Comma
  | Semi
  | Dot
  | Turnstile
  | Underscore
  | Op of Value.op
  | Eof

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier %S" s
  | Int i -> Printf.sprintf "integer %d" i
  | Str s -> Printf.sprintf "string %S" s
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Semi -> "';'"
  | Dot -> "'.'"
  | Turnstile -> "':-'"
  | Underscore -> "'_'"
  | Op op -> Printf.sprintf "'%s'" (Value.op_to_string op)
  | Eof -> "end of input"

type lexeme = { tok : token; pos : int }

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_letter c || is_digit c || c = '_' || c = '\''

(* Every lexeme carries the offset it starts at, so errors raised while
   parsing (not just while tokenizing) point into the input: the server
   echoes these messages to remote clients. An identifier continues
   through '-' only when a letter follows, so [mis-amp-lite] is one
   identifier while [x-1] stays [x] then [-1]. *)
let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit pos tok = out := { tok; pos } :: !out in
  let next_is j c = j < n && src.[j] = c in
  let i = ref 0 in
  while !i < n do
    let pos = !i in
    let c = src.[pos] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '_' && not (pos + 1 < n && is_ident_char src.[pos + 1]) then begin
      emit pos Underscore;
      incr i
    end
    else if is_letter c || c = '_' || c = '\'' then begin
      let j = ref (pos + 1) in
      while
        !j < n
        && (is_ident_char src.[!j] || (src.[!j] = '-' && !j + 1 < n && is_letter src.[!j + 1]))
      do
        incr j
      done;
      emit pos (Ident (String.sub src pos (!j - pos)));
      i := !j
    end
    else if is_digit c || (c = '-' && pos + 1 < n && is_digit src.[pos + 1]) then begin
      let j = ref (pos + 1) in
      while !j < n && is_digit src.[!j] do
        incr j
      done;
      emit pos (Int (int_of_string (String.sub src pos (!j - pos))));
      i := !j
    end
    else if c = '"' then begin
      match String.index_from_opt src (pos + 1) '"' with
      | None -> fail pos "unterminated string literal"
      | Some j ->
          emit pos (Str (String.sub src (pos + 1) (j - pos - 1)));
          i := j + 1
    end
    else begin
      let one tok =
        emit pos tok;
        incr i
      and two tok =
        emit pos tok;
        i := pos + 2
      in
      match c with
      | '(' -> one Lparen
      | ')' -> one Rparen
      | ',' -> one Comma
      | ';' -> one Semi
      | '.' -> one Dot
      | ':' -> if next_is (pos + 1) '-' then two Turnstile else fail pos "expected ':-'"
      | '=' -> one (Op Value.Eq)
      | '!' -> if next_is (pos + 1) '=' then two (Op Value.Neq) else fail pos "expected '!='"
      | '<' ->
          if next_is (pos + 1) '=' then two (Op Value.Le)
          else if next_is (pos + 1) '>' then two (Op Value.Neq)
          else one (Op Value.Lt)
      | '>' -> if next_is (pos + 1) '=' then two (Op Value.Ge) else one (Op Value.Gt)
      | c -> fail pos "unexpected character %C" c
    end
  done;
  emit n Eof;
  Array.of_list (List.rev !out)

type state = { toks : lexeme array; mutable i : int }

let start src = { toks = tokenize src; i = 0 }
let peek st = st.toks.(min st.i (Array.length st.toks - 1))
let peek2 st = st.toks.(min (st.i + 1) (Array.length st.toks - 1))
let advance st = st.i <- st.i + 1

let expect st tok what =
  let l = peek st in
  if l.tok = tok then advance st
  else fail l.pos "expected %s, found %s" what (token_to_string l.tok)

let is_capitalized s = s.[0] >= 'A' && s.[0] <= 'Z'

let term st =
  let l = peek st in
  match l.tok with
  | Underscore ->
      advance st;
      Query.Wildcard
  | Int i ->
      advance st;
      Query.Const (Value.int i)
  | Str s ->
      advance st;
      Query.Const (Value.str s)
  | Ident s ->
      advance st;
      if is_capitalized s then Query.Const (Value.str s) else Query.Var s
  | t -> fail l.pos "expected a term, found %s" (token_to_string t)

let terms st =
  let rec more acc =
    if (peek st).tok = Comma then begin
      advance st;
      more (term st :: acc)
    end
    else List.rev acc
  in
  more [ term st ]

(* NAME(terms) or NAME(session; left; right), else lhs OP rhs. *)
let atom st =
  let l = peek st in
  match l.tok with
  | Ident rel when (peek2 st).tok = Lparen -> (
      advance st;
      advance st;
      let rec groups acc =
        if (peek st).tok = Semi then begin
          advance st;
          groups (terms st :: acc)
        end
        else List.rev acc
      in
      let gs = groups [ terms st ] in
      expect st Rparen "')'";
      match gs with
      | [ terms ] -> Query.Rel { rel; terms }
      | [ session; [ left ]; [ right ] ] -> Query.Pref { rel; session; left; right }
      | [ _; _; _ ] ->
          fail l.pos "preference atom %s(...): item groups must be single terms" rel
      | gs -> fail l.pos "atom %s(...): %d ';'-groups (want 1 or 3)" rel (List.length gs))
  | _ -> (
      let lhs = term st in
      let l = peek st in
      match l.tok with
      | Op op ->
          advance st;
          let rhs = term st in
          Query.Cmp { lhs; op; rhs }
      | t -> fail l.pos "expected a comparison operator, found %s" (token_to_string t))

let header st =
  let l = peek st in
  let name =
    match l.tok with
    | Ident n ->
        advance st;
        n
    | t -> fail l.pos "expected query name, found %s" (token_to_string t)
  in
  expect st Lparen "'('";
  let rec vars acc =
    let l = peek st in
    match l.tok with
    | Ident v when not (is_capitalized v) ->
        advance st;
        if (peek st).tok = Comma then begin
          advance st;
          vars (v :: acc)
        end
        else List.rev (v :: acc)
    | _ -> fail l.pos "head terms must be (lowercase) variables"
  in
  let head = if (peek st).tok = Rparen then [] else vars [] in
  expect st Rparen "')'";
  expect st Turnstile "':-'";
  (name, head)

let parse src =
  let st = start src in
  let name, head = header st in
  let rec atoms acc =
    let acc = atom st :: acc in
    let l = peek st in
    match l.tok with
    | Comma ->
        advance st;
        atoms acc
    | Dot ->
        advance st;
        List.rev acc
    | Eof -> List.rev acc
    | t -> fail l.pos "expected ',' or '.' after atom, found %s" (token_to_string t)
  in
  let body = atoms [] in
  let l = peek st in
  if l.tok <> Eof then fail l.pos "trailing input: %s" (token_to_string l.tok);
  try Query.make ~name ~head body
  with Invalid_argument msg -> raise (Parse_error { pos = 0; msg })

let parse_result src =
  match parse src with
  | q -> Ok q
  | exception Parse_error e -> Error (error_to_string e)

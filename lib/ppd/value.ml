type t = Int of int | Str of string

let compare a b =
  match (a, b) with
  | Int x, Int y -> Stdlib.compare x y
  | Str x, Str y -> Stdlib.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

let equal a b = compare a b = 0
let hash = Hashtbl.hash
let to_string = function Int i -> string_of_int i | Str s -> s
let pp ppf v = Format.pp_print_string ppf (to_string v)
let int i = Int i
let str s = Str s
let as_int = function Int i -> Some i | Str _ -> None

type op = Eq | Neq | Lt | Le | Gt | Ge

let op_to_string = function
  | Eq -> "="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let flip_op = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

let apply_op op a b =
  let c = compare a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

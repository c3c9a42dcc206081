(* The query language's abstract syntax: Ppd.Parser's datalog (terms and
   atoms are Ppd.Query's, read by Ppd.Parser's rules) plus

   - [prefers(a, b)]      — preference sugar over the default p-relation;
   - [rank(x) <= k]       — rank atoms over concrete items;
   - [top(k, x)]          — sugar for [rank(x) <= k];
   - [or] / [and]         — disjunction of conjunctions ([,] = [and]);
   - task prefixes        — [count], [sum(...)], [avg(...)], [top(k)],
                            [prob] (the default);
   - modal prefixes       — [possibly], [certainly];
   - [using <solver>]     — a solver hint, validated against
                            [Hardq.Solver.of_string]'s canonical name
                            table so every layer enumerates one set. *)

type term = Ppd.Query.term

type atom =
  | Prefers of { left : term; right : term }
      (* default p-relation, wildcard session terms *)
  | Datalog of Ppd.Query.atom
  | Rank of { item : term; op : Prefs.Rank_pred.op; k : int }
  | Top of { k : int; item : term }

type conj = atom list

type agg = Key_index of int | Joined of { relation : string; attr : string }
type task = Prob | Count | Sum of agg | Avg of agg | Top_sessions of int
type modal = Possibly | Certainly

type t = {
  name : string;
  head : string list;
  task : task;
  modal : modal option;
  using : Hardq.Solver.t option;
  body : conj list; (* disjuncts; non-empty, each non-empty *)
}

type error = Ppd.Parser.error = { pos : int; msg : string }

let error_to_string = Ppd.Parser.error_to_string

let equal (a : t) (b : t) = a = b

(* ---------------------------------------------------------------- *)
(* Embedding the datalog fragment                                    *)
(* ---------------------------------------------------------------- *)

let of_query (q : Ppd.Query.t) =
  {
    name = q.Ppd.Query.name;
    head = q.Ppd.Query.head;
    task = Prob;
    modal = None;
    using = None;
    body = [ List.map (fun a -> Datalog a) q.Ppd.Query.body ];
  }

(* ---------------------------------------------------------------- *)
(* Printer (round-trips through Parser.parse)                        *)
(* ---------------------------------------------------------------- *)

let atom_to_string = function
  | Prefers { left; right } ->
      Printf.sprintf "prefers(%s, %s)" (Ppd.Query.term_to_string left)
        (Ppd.Query.term_to_string right)
  | Datalog a -> Ppd.Query.atom_to_string a
  | Rank { item; op; k } ->
      Printf.sprintf "rank(%s) %s %d" (Ppd.Query.term_to_string item)
        (Prefs.Rank_pred.op_to_string op) k
  | Top { k; item } -> Printf.sprintf "top(%d, %s)" k (Ppd.Query.term_to_string item)

let agg_to_string = function
  | Key_index i -> Printf.sprintf "key %d" i
  | Joined { relation; attr } -> Printf.sprintf "%s.%s" relation attr

let task_to_string = function
  | Prob -> ""
  | Count -> "count "
  | Sum a -> Printf.sprintf "sum(%s) " (agg_to_string a)
  | Avg a -> Printf.sprintf "avg(%s) " (agg_to_string a)
  | Top_sessions k -> Printf.sprintf "top(%d) " k

let modal_to_string = function Possibly -> "possibly " | Certainly -> "certainly "

let to_string t =
  let prefix =
    task_to_string t.task
    ^ (match t.modal with None -> "" | Some m -> modal_to_string m)
    ^
    match t.using with
    | None -> ""
    | Some s -> Printf.sprintf "using %s " (Hardq.Solver.to_string s)
  in
  Printf.sprintf "%s%s(%s) :- %s." prefix t.name
    (String.concat ", " t.head)
    (String.concat " or "
       (List.map
          (fun conj -> String.concat ", " (List.map atom_to_string conj))
          t.body))

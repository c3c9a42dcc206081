(** Abstract syntax of the declarative query language: {!Ppd.Parser}'s
    datalog extended with preference sugar ([prefers(a, b)]), rank atoms
    ([rank(x) <= k], [top(k, x)]), disjunction ([or]), task prefixes
    ([count], [sum(...)], [avg(...)], [top(k)]), modal prefixes
    ([possibly], [certainly]) and solver hints ([using <name>]). Terms
    and datalog atoms are {!Ppd.Query}'s, read by {!Ppd.Parser}'s rules,
    so a datalog text means the same in both frontends. *)

type term = Ppd.Query.term

type atom =
  | Prefers of { left : term; right : term }
      (** [prefers(a, b)]: sugar for a preference atom over the
          database's default p-relation with wildcard session terms *)
  | Datalog of Ppd.Query.atom
      (** a preference [P(s…; x; y)], relational or comparison atom *)
  | Rank of { item : term; op : Prefs.Rank_pred.op; k : int }
      (** [rank(x) ⋈ k]; ranks are 1-based *)
  | Top of { k : int; item : term }  (** [top(k, x)] ≡ [rank(x) <= k] *)

type conj = atom list

type agg =
  | Key_index of int  (** [key i]: the i-th session-key attribute *)
  | Joined of { relation : string; attr : string }
      (** [R.attr]: join the session key against o-relation [R] *)

type task = Prob | Count | Sum of agg | Avg of agg | Top_sessions of int
type modal = Possibly | Certainly

type t = {
  name : string;  (** defaults to ["Q"] when the header is omitted *)
  head : string list;
  task : task;
  modal : modal option;
  using : Hardq.Solver.t option;
      (** the [using <name>] hint; names come from
          [Hardq.Solver.valid_names] — one canonical list across CLI,
          server and language *)
  body : conj list;  (** disjuncts; non-empty, each non-empty *)
}

type error = Ppd.Parser.error = { pos : int; msg : string }
(** A positioned syntax error; [pos] is a byte offset into the input. *)

val error_to_string : error -> string
(** ["<msg> at offset <pos>"], as {!Ppd.Parser.error_to_string}. *)

val equal : t -> t -> bool

val of_query : Ppd.Query.t -> t
(** Embed a datalog query: task [Prob], no modal, no hint, one
    disjunct. [parse (Ppd.Query.to_string q)] equals [of_query q]. *)

val atom_to_string : atom -> string

val to_string : t -> string
(** Canonical rendering; [Parser.parse (to_string t)] reproduces [t]
    exactly. For an embedded datalog query it coincides with
    [Ppd.Query.to_string]. *)

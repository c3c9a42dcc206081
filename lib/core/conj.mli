(** Internal bookkeeping shared by the exact solvers: interning of node
    conjunctions ("composite labels") against a concrete RIM model.

    A pattern node is a conjunction of labels; an item carries the
    composite label iff it carries every label of the conjunction. The
    solvers track min/max positions per composite label, so they need
    fast "does the item inserted at step [i] match conjunction [c]" and
    "how many items after step [i] match [c]" lookups. *)

type t

val create : Prefs.Labeling.t -> Rim.Model.t -> t
(** [create lab model] prepares an interning context for the model's
    reference ranking σ, reading σ's inverse from the model
    ({!Rim.Model.positions}) instead of building it per call. *)

val intern : t -> Prefs.Pattern.node -> int
(** Id of a conjunction (allocating it on first use). *)

val freeze : t -> unit
(** Force the internal lookup tables. After [freeze] (and absent further
    {!intern} calls) the context is safe to read from several domains
    concurrently; without it the first lookup builds the tables lazily,
    which would race. *)

val matches : t -> int -> int -> bool
(** [matches t c i] — does the item inserted at step [i] (i.e. [σ_i])
    carry conjunction [c]? *)

val match_row : t -> int -> bool array
(** [match_row t c] — [matches t c i] for every step [i], as one array a
    kernel reads without a call per lookup. It must not be written. *)

val remaining_row : t -> int -> int array
(** [remaining_row t c] — for every step [i], the number of steps
    [k > i] whose item carries [c], with the same rule as {!match_row}. *)

val total : t -> int -> int
(** Number of items in the whole domain carrying [c]. *)

val exhausted : t -> int -> int -> bool
(** [exhausted t c i] — no step after [i] inserts an item carrying [c]
    ([(remaining_row t c).(i) = 0]): a min/max tracked for [c] can then only
    shift, never take a new item. *)

val edge_dead : t -> int -> int -> int -> bool
(** [edge_dead t l r i] — both sides of the constraint
    [min(l) < max(r)] are {!exhausted} after step [i]. An edge that is
    not satisfied at that point can never become satisfied (paper
    Algorithm 4's violated edge). *)

val step : hit:bool -> left:bool -> int -> int -> int
(** [step ~hit ~left j v] — the track update of every insertion DP.
    [v] is a tracked min ([left]) or max position plus one (0 = no item
    yet); the inserted item lands at position [j] and [hit] says whether
    it carries the track's conjunction. An already-tracked item at
    position [>= j] shifts down by one, then the extremum with [j] is
    taken when [hit]. *)

val step_table : int -> int array
(** [step_table m] tabulates {!step} for a model of [m] items, so a DP
    kernel reads it with one array load instead of a call: for [j < m]
    and [v <= m], [step ~hit ~left j v] is entry
    [step_row m ~hit ~left + (j * (m + 1)) + v]. A domain keeps the last
    table it built while it is small (m ≤ 63), so back-to-back calls of
    one size build it once. It must not be written. *)

val step_row : int -> hit:bool -> left:bool -> int
(** Offset of the [(hit, left)] block of [step_table m]. *)

(** Layer tables for the insertion-step dynamic programs.

    Both tables number states by {e first insertion} and iterate in that
    order, making a layer's state sequence — and therefore every float
    addition downstream — an intrinsic property of the contribution
    stream that built it, independent of hashing. This is what lets the
    {!Flat} kernel reproduce the {!Boxed} reference bit for bit (see
    {!Kernel}), and both reproduce themselves at any {!Dp_par} width.

    {!Boxed} stores one structured key per state (the reference layout);
    {!Flat} packs all states of a layer into one int arena behind an
    open-addressing index, so the DP hot path performs no per-state
    allocation. *)

exception State_explosion of { table : string; cap : int }
(** A table would grow past its [max_states] cap: [table] is the
    table's name (the solver that owns it), [cap] the cap. Callers
    surface it as a typed budget error, like a CPU budget running out. *)

(** Insertion-ordered layer keyed by structured values (reference
    kernel). Keys are compared and hashed structurally. *)
module Boxed : sig
  type 'k t

  val create : ?capacity:int -> name:string -> max_states:int -> unit -> 'k t

  val length : 'k t -> int
  (** Number of distinct states, in insertion order [0 .. length-1]. *)

  val key : 'k t -> int -> 'k
  val prob : 'k t -> int -> float

  val add : 'k t -> 'k -> float -> unit
  (** Accumulate onto an existing state or append a new one. Raises
      {!State_explosion} past [max_states]. *)

  val sum : 'k t -> float
  (** Probabilities summed in insertion order. *)
end

(** Insertion-ordered layer over integer-encoded states in a flat arena
    (production kernel). A state is a span of ints; spans are copied
    into the arena on first insertion and indexed by open addressing.
    [clear] retains capacity, so two tables swap/cleared between layers
    allocate only up to the call's high-water mark. A fresh table's
    arrays are at most 256 words each, so creating one allocates in the
    minor heap only. *)
module Flat : sig
  type t

  val create :
    ?capacity_words:int -> name:string -> max_states:int -> unit -> t

  val length : t -> int

  val prob : t -> int -> float

  val off : t -> int -> int
  (** Word offset of state [s] in {!data}. *)

  val len : t -> int -> int
  (** Word count of state [s]. *)

  val data : t -> int array
  (** The raw arena. Invalidated by {!add} (growth may replace the
      array) — only read it for a table that is not being added to. *)

  val offs : t -> int array
  val lens : t -> int array
  val probs : t -> float array
  (** The raw slot arrays behind {!off}, {!len} and {!prob}, with the
      same rule as {!data}: a kernel hoists them once per layer for the
      table it reads, so an expansion makes no call into this module. *)

  val add : t -> int array -> int -> int -> float -> unit
  (** [add t buf off len p]: accumulate [p] onto the state whose words
      are [buf.(off .. off+len-1)], copying them into the arena when
      new. [buf] must not alias [t]'s arena. Raises {!State_explosion}
      past [max_states]. *)

  val add_cell : t -> int array -> int -> int -> float array -> int -> unit
  (** [add_cell t buf off len cell ci] is [add t buf off len cell.(ci)]
      with the probability read from a float cell, so the emission path
      of the flat kernels ({!Dp_par.run_flat}) never boxes a float. *)

  val clear : t -> unit
  (** Empty the table, keeping arena and index capacity. *)

  val sum : t -> float

  val with_pair : name:string -> max_states:int -> (t -> t -> 'a) -> 'a
  (** [with_pair ~name ~max_states f] runs [f] on two empty tables: the
      calling domain's spare pair when it has one (cleared, renamed and
      re-capped), else two fresh ones. The pair goes back to the domain
      when [f] returns or raises, unless its total size exceeds
      {!retain_cap_words}. A solver call's two layer tables come from
      here, so steady-state calls reuse grown arenas and allocate
      nothing. [f] must not let the tables escape. *)

  val retain_cap_words : int
  (** The most words (arena, slot arrays and index of both tables) a
      domain's spare pair may keep between calls. *)

  val spare_words : unit -> int
  (** Words held by the calling domain's spare pair (0 when none). *)

  val used_words : t -> int
  val capacity_words : t -> int

  val note_layer_width : int -> unit
  (** Record one layer's state count in the [dp.flat.layer_width]
      histogram. *)

  val flush_call : states:int -> hwm_words:int -> unit
  (** Flush one flat solver call's tallies: total states across layers
      into [dp.flat.states], the arena high-water mark into
      [dp.flat.arena_words_hwm], and bump [dp.flat.calls]. *)
end

(** Layer tables for the insertion-step dynamic programs.

    Both tables number states by {e first insertion} and iterate in that
    order, making a layer's state sequence — and therefore every float
    addition downstream — an intrinsic property of the contribution
    stream that built it, independent of hashing. This is what lets the
    {!Fixed} kernels reproduce the {!Boxed} reference bit for bit (see
    {!Kernel}), and both reproduce themselves at any {!Dp_par} width.

    {!Boxed} stores one structured key per state (the reference layout);
    {!Fixed} packs all states of a layer, each the same number of ints,
    into one int array behind an open-addressing index, so the DP hot
    path performs no per-state allocation. *)

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

(** The flat kernels' layer table: every state of a call is [width]
    ints (a kernel whose states vary in length zero-pads them to a
    width fixed before its first layer), slot [s] holding words
    [s * width .. s * width + width - 1] of {!keys}. [clear] retains
    capacity, so two tables swapped and cleared between layers allocate
    only up to the call's high-water mark. A fresh table's arrays are at
    most 256 words each, so creating one allocates in the minor heap
    only. *)
module Fixed : sig
  type t

  val create : width:int -> name:string -> max_states:int -> unit -> t

  val width : t -> int
  val length : t -> int

  val keys : t -> int array
  (** The raw key array. Invalidated by {!add} (growth may replace it):
      a kernel hoists it, with {!probs}, once per layer for the table it
      reads, so an expansion makes no call into this module but the
      insert. *)

  val probs : t -> float array
  (** Slot [s]'s probability is [probs.(s)], with the rule of {!keys}. *)

  val add : t -> int array -> int -> float array -> int -> unit
  (** [add t buf off cell ci]: accumulate [cell.(ci)] onto the state
      whose words are [buf.(off .. off+width-1)], copying them in when
      the state is new. The probability travels in a float cell because
      a bare float crossing a module boundary is boxed. [buf] must not
      be [t]'s own {!keys}. Raises {!State_explosion} past [max_states]. *)

  val clear : t -> unit
  (** Empty the table, keeping key and index capacity. *)

  val used_words : t -> int
  (** [length * width]: the words the layer's keys take. *)

  val capacity_words : t -> int

  val with_pair :
    name:string -> width:int -> max_states:int -> (t -> t -> 'a) -> 'a
  (** [with_pair ~name ~width ~max_states f] runs [f] on two empty
      tables: the calling domain's spare pair (cleared, renamed,
      re-capped and set to [width]), or two fresh ones when the slot is
      empty or checked out by a nested or concurrent holder (checkout is
      an atomic exchange, so a pair is never shared). The pair goes back
      when [f] returns or raises, unless its total size exceeds
      {!retain_cap_words}. A solver call's two layer tables come from
      here, so steady-state calls reuse grown tables and allocate
      nothing. [f] must not let the tables escape. *)

  val retain_cap_words : int
  (** The most words (keys, probabilities and index of both tables) a
      domain's spare pair may keep between calls. *)

  val spare_words : unit -> int
  (** Words held by the calling domain's spare pair (0 when none). *)

  val note_layer_width : int -> unit
  (** Record one layer's state count in the [dp.flat.layer_width]
      histogram. *)

  val flush_call : states:int -> hwm_words:int -> unit
  (** Flush one flat solver call's tallies: total states across layers
      into [dp.flat.states], the key high-water mark into
      [dp.flat.arena_words_hwm], and bump [dp.flat.calls]. *)
end

(** A compensated (Neumaier) sum: the satisfied mass a DP adds up,
    thousands of small terms onto a larger total, stays within a few
    ulps where a plain running sum drifts by about 1e-12 relative. *)
module Mass : sig
  type t

  val create : unit -> t

  val add : t -> float array -> int -> unit
  (** [add t cell ci] adds [cell.(ci)] (a cell, so no float is boxed). *)

  val add_float : t -> float -> unit
  (** [add] for the boxed kernels, whose probabilities are boxed anyway. *)

  val total : t -> float
end

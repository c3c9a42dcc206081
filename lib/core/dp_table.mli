(** The layer table of the insertion-step dynamic programs, and their
    one layer driver ({!Layers}).

    {!Fixed} numbers states by {e first insertion} and iterates in that
    order, making a layer's state sequence — and therefore every float
    addition downstream — an intrinsic property of the contribution
    stream that built it, independent of hashing. This is what lets
    every kernel reproduce itself bit for bit at any pool width. It
    packs all states of a layer, each the same number of ints, into one
    int array behind an open-addressing index, so the DP hot path
    performs no per-state allocation. *)

exception State_explosion of { table : string; cap : int }
(** A table would grow past its [max_states] cap: [table] is the
    table's name (the solver that owns it), [cap] the cap. Callers
    surface it as a typed budget error, like a CPU budget running out. *)

(** The kernels' layer table: every state of a call is [width]
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

end

(** A compensated (Neumaier) sum: the satisfied mass a DP adds up,
    thousands of small terms onto a larger total, stays within a few
    ulps where a plain running sum drifts by about 1e-12 relative. *)
module Mass : sig
  type t

  val create : unit -> t

  val add : t -> float array -> int -> unit
  (** [add t cell ci] adds [cell.(ci)] (a cell, so no float is boxed). *)

  val total : t -> float
end

(** The one layer driver of the DP kernels (DESIGN.md §13.6). A
    kernel supplies a table width, a seed state, chunk scratch, a
    per-layer hoist returning its per-state expansion, and a read of the
    last table; the driver owns the {!Fixed.with_pair} tables, the
    budget check per layer, the state and layer-width tallies, the
    sequential/chunked split at {!default_min_par} with chunk-order
    replay, the high-water mark, the swap and the call's
    [dp.flat.*] flush. *)
module Layers : sig
  type out
  (** Where an expansion's satisfied mass goes: the call's one {!Mass},
      or a parallel chunk's private log. *)

  val default_min_par : int
  (** Layers of fewer states than this expand on the calling domain;
      larger ones, on a pool wider than 1, in contiguous chunks whose
      emissions are replayed in chunk order. The cut-off moves no answer
      bit: the replayed streams are the sequential ones. *)

  val emit_mass : out -> float array -> int -> unit
  (** [emit_mass out cell ci]: mass [cell.(ci)] leaves the DP as
      satisfied. *)

  val run :
    name:string ->
    width:int ->
    max_states:int ->
    budget:Util.Timer.budget ->
    par:Util.Par.t ->
    states:int ref ->
    ?first:int ->
    last:int ->
    ?seed:int array ->
    scratch:(unit -> 'c) ->
    layer:
      (int -> int array -> float array -> 'c -> Fixed.t -> out -> int -> unit) ->
    ?finish:('c -> unit) ->
    answer:(Fixed.t -> Mass.t -> 'a) ->
    unit ->
    'a
  (** Seed a table [name] of [width] ints per state (capped at
      [max_states]) with [seed] (default all zeros) at probability 1,
      then insert items [first] (default 0) to [last], one layer each:
      check [budget], run [layer i keys probs] on the calling domain
      (the hoist; [keys]/[probs] are the current table's, read-only)
      and call the [expand] it returns as [expand sc next out s] once
      per state [s] in slot order — so write the hoist as
      [fun i keys probs -> ...; fun sc next out s -> ...]. An expansion
      emits each successor with [Fixed.add next] (the next layer's
      table, or on a parallel chunk a log the driver replays into it)
      and its satisfied mass with {!emit_mass}: one call per emission.
      [scratch] makes the calling domain's scratch once per call and one
      per parallel chunk; [finish] runs on each after its emissions
      merge (a chunk's after its replay, the calling domain's once at
      the end). Satisfied mass is added up, in emission order, in one
      {!Mass}. Adds the call's states to [states] and returns [answer]
      of the last table and that mass. Raises {!State_explosion} and
      [Util.Timer.Out_of_time]; an aborted call still adds the states
      it built (each layer's table is counted before its budget check)
      to [states] and flushes its [dp.flat.*] tallies before it
      re-raises. *)
end

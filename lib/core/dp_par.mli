(** Deterministic chunked expansion of one DP layer.

    [run] expands [n] states into contributions to the next layer's
    table ([emit]/[add]) and an optional scalar accumulator
    ([emit_prob]/[add_prob]) such that the merged contribution stream —
    and therefore every float addition and every table-insertion order —
    is bit-identical to a sequential [for]-loop over the states, for any
    parallelism width. Parallel chunks buffer their emissions privately
    and the buffers are replayed into [add]/[add_prob] in chunk order on
    the calling domain.

    [ctx] is called once per chunk (once total on the sequential path)
    and its result passed to every [expand] in that chunk; use it for
    chunk-local scratch state (e.g. an interning table) that must not be
    shared across domains. [expand] must not touch shared mutable state
    other than via [emit]/[emit_prob]. [finish] runs on the calling
    domain once per chunk, in chunk order, right after that chunk's
    emissions merge — the place to flush chunk-local tallies. *)

val default_min_par : int
(** Layers smaller than this run sequentially (overridable). *)

val run :
  par:Util.Par.t ->
  ?min_par:int ->
  n:int ->
  ctx:(unit -> 'c) ->
  expand:('c -> int -> emit:('k -> float -> unit) -> emit_prob:(float -> unit) -> unit) ->
  ?finish:('c -> unit) ->
  add:('k -> float -> unit) ->
  add_prob:(float -> unit) ->
  unit ->
  unit

val run_flat :
  par:Util.Par.t ->
  ?min_par:int ->
  n:int ->
  ctx:(unit -> 'c) ->
  expand:
    ('c ->
    int ->
    emit:(int array -> int -> float array -> int -> unit) ->
    emit_prob:(float array -> int -> unit) ->
    unit) ->
  ?finish:('c -> unit) ->
  into:Dp_table.Fixed.t ->
  add_prob:(float array -> int -> unit) ->
  unit ->
  unit
(** [run] for the flat kernels: an emission [emit buf off cell ci] is a
    state of [into]'s width at [buf.(off ..)] with its probability in a
    float cell [cell.(ci)], destined for {!Dp_table.Fixed.add} into
    [into]; [emit_prob] likewise passes [(cell, ci)]. Cells keep floats
    unboxed end to end. On the sequential path [emit] {e is}
    [Dp_table.Fixed.add into], so the caller may pass a scratch buffer
    and cell it overwrites between emissions. On the parallel path each
    chunk copies its emissions into private unboxed buffers, frames of
    exactly [width] words, and the frames replay in chunk order straight
    into [into], preserving the sequential contribution stream exactly
    as {!run} does. [buf] must not be [into]'s own key array. *)

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
    emit:(int array -> int -> int -> float array -> int -> unit) ->
    emit_prob:(float array -> int -> unit) ->
    unit) ->
  ?finish:('c -> unit) ->
  add:(int array -> int -> int -> float array -> int -> unit) ->
  add_prob:(float array -> int -> unit) ->
  unit ->
  unit
(** [run] for the flat kernel: an emission is a span of ints
    [(buf, off, len)] with a probability held in a float cell
    [(cell, ci)], destined for {!Dp_table.Flat.add_cell}; [emit_prob]
    likewise passes [(cell, ci)]. Cells keep floats unboxed end to end:
    [add]/[add_prob] read [cell.(ci)] in place. On the sequential path
    [emit] {e is} [add], so the caller may pass a scratch buffer and
    cell it overwrites between emissions ([add] consumes them
    immediately). On the parallel
    path emissions are framed into chunk-private unboxed buffers and
    replayed in chunk order, preserving the sequential contribution
    stream exactly as {!run} does. The same aliasing rule applies:
    [buf] must not be the destination table's own arena. *)

(** Deterministic chunked expansion of one DP layer of the boxed
    reference kernels (the flat kernels run on {!Dp_table.Layers}, which
    applies the same chunk-order replay to fixed-width frames).

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
(** Layers smaller than this run sequentially ([run] takes [?min_par];
    {!Dp_table.Layers} always cuts here). *)

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

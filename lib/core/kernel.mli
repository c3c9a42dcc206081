(** The DP layout of the exact solvers, as a recorded setting.

    Every insertion-step DP keeps its layers in the one flat layout,
    {!Dp_table.Fixed}, on the one layer driver, {!Dp_table.Layers}, so
    there is nothing to select. This type remains only because
    [perfbench/perfbench.ml] still prints [Server.config.kernel] in its
    run header; it goes once the serving benchmark drops that line.
    Nothing else reads it. *)

type t = Flat

val to_string : t -> string

(** DP-kernel selector for the exact solvers.

    Every insertion-step dynamic program ships in two implementations
    that are {e byte-identical} in their answers:

    - [Boxed] — the reference layout: hashtables of structured keys
      (int arrays, interned records). Easy to audit against the paper's
      pseudocode; allocates one key per state per layer.
    - [Flat] — the production layout: layers live in flat int/float
      arrays ({!Dp_table.Fixed}) with integer-encoded states of one
      width per call and an open-addressing index, so the hot loop performs no per-state
      allocation and the GC never scans boxed DP state.

    Both kernels process states in first-insertion order and merge
    parallel chunk buffers in chunk order ({!Dp_par}), so the float
    contribution stream — and therefore every answer bit — is the same
    for either kernel at any domain width. The QA oracle and
    [test/t_kernel.ml] pin that equivalence. *)

type t = Boxed | Flat

val default : t
(** [Flat] — the fast layout is the default everywhere; [Boxed] is kept
    as the differential reference. *)

val to_string : t -> string

val valid_names : string list

val of_string : string -> (t, string) result
(** Case-insensitive, surrounding whitespace ignored; accepts exactly
    {!valid_names}. *)

(** Combinatorial helpers for brute-force oracles and decompositions. *)

val factorial : int -> int
(** [factorial n]; raises [Invalid_argument] for [n < 0] or [n > 20]
    (beyond 20 it overflows 63-bit integers). *)

val iter_permutations : int -> (int array -> unit) -> unit
(** [iter_permutations n f] calls [f] on each permutation of [0..n-1].
    The array passed to [f] is reused; copy it if you keep it. *)

val unrank_permutation : int -> int -> int array
(** [unrank_permutation n r] is the [r]-th permutation of [0..n-1] in
    lexicographic order, [0 <= r < factorial n]. *)

val next_permutation : int array -> bool
(** In-place lexicographic successor; [false] (array untouched) when the
    input is the last permutation. *)

val iter_permutations_range : int -> lo:int -> hi:int -> (int array -> unit) -> unit
(** [iter_permutations_range n ~lo ~hi f] calls [f] on the permutations
    of lexicographic ranks [lo .. hi-1], in rank order (clamped to
    [0 .. factorial n]). The array passed to [f] is reused; copy it if
    you keep it. Chunking a sum over [[0, n!)] into contiguous rank
    ranges visits exactly the permutations of one full enumeration, in
    the same order — the basis of the brute solver's deterministic
    parallel split. *)

val iter_subsets : 'a list -> ('a list -> unit) -> unit
(** Calls [f] on every subset (including the empty one), preserving order. *)

val iter_nonempty_subsets : 'a list -> ('a list -> unit) -> unit

val cartesian_product : 'a list list -> 'a list list
(** [cartesian_product [d1; d2; ...]] lists all tuples taking one element
    from each [di], in lexicographic order of the input lists. *)

val choose : int -> int -> int
(** Binomial coefficient, exact in int range. *)

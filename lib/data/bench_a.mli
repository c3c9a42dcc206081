(** Benchmark-A (paper §6.1): pattern unions over MAL(σ, 0.1) where each
    union is three bipartite patterns of the shape
    [{A ≻ C, A ≻ D, B ≻ D}]; the three patterns share the items of labels
    B and D. Items for A/B are sampled with probability ∝ (i+1)^1.5
    (bottom-heavy), items for C/D with probability ∝ (m-i)^1.5
    (top-heavy), making the unions low-probability — the accuracy stress
    test for the approximate solvers (Figures 5, 10a, 11). *)

val generate :
  ?m:int ->
  ?phi:float ->
  ?n_unions:int ->
  ?items_per_label:int ->
  seed:int ->
  unit ->
  Instance.t list
(** Defaults: [m = 15], [phi = 0.1], [n_unions = 33],
    [items_per_label = 3] (the paper's parameters). *)

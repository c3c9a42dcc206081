(** MIS-AMP-adaptive (paper §5.5): calls MIS-AMP-lite with a growing
    number of proposal distributions (increments of Δd) until the
    estimate stabilizes. *)

type result = {
  estimate : Estimate.t;  (** final estimate; times are cumulative *)
  rounds : (int * float) list;  (** (d, value) per round, in order *)
}

val estimate :
  ?delta_d:int ->
  ?d_max:int ->
  ?n_per:int ->
  ?tol:float ->
  ?subrank_cap:int ->
  Rim.Mallows.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  result
(** The first round uses one proposal. Defaults: [delta_d = 5],
    [d_max = 50], [n_per = 1000], [tol = 0.05] (relative change between
    consecutive rounds). Stops early when the modal pool is exhausted. *)

val estimate_with_plan :
  ?delta_d:int ->
  ?d_max:int ->
  ?n_per:int ->
  ?tol:float ->
  Mis_amp_lite.plan ->
  Util.Rng.t ->
  result

(** Result record shared by the approximate solvers. *)

type t = {
  value : float;  (** estimated probability *)
  n_samples : int;  (** total samples drawn *)
  n_proposals : int;  (** proposal distributions used (1 for RS/IS) *)
  overhead_time : float;
      (** seconds spent constructing proposal distributions (decomposition,
          modal search) — the paper's Figure 13a *)
  sampling_time : float;  (** seconds spent drawing and weighing samples *)
}

val value : t -> float
val exact : float -> t
(** Wrap an exactly-known value (0 samples). *)

val pp : Format.formatter -> t -> unit

(** Capability handed to {!General.prob} so a caller (the engine) can
    share solved inclusion–exclusion conjunction terms across queries
    against the same (model, labeling).

    Like [Util.Par.t], this is dependency-free capability injection:
    [lib/core] never learns about the engine's store. Contract:

    - [find c] may only return a float previously passed to [store c']
      for a structurally identical conjunction [c'] under the same model
      and labeling; since {!Pattern_solver.prob} is deterministic and
      RNG-free, reuse is then bit-identical to re-evaluating.
    - Both closures may be called from the calling domain only (the
      solver invokes them outside its parallel region), but different
      queries may run on different domains concurrently, so
      implementations must be thread-safe. *)

type t = {
  find : Prefs.Pattern.t -> float option;
  store : Prefs.Pattern.t -> float -> unit;
}

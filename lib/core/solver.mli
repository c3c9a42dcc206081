(** Unified solver dispatch: one entry point per solver family with a
    common signature, plus an [`Auto] mode that picks the most specific
    exact solver for the union's shape (two-label ⊂ bipartite ⊂ general,
    §4). *)

type exact = [ `Auto | `Two_label | `Bipartite | `Bipartite_basic | `General | `Brute ]

val exact_name : exact -> string

val exact_prob :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?cache:Term_cache.t ->
  exact ->
  Rim.Model.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  float
(** Raises [Two_label.Unsupported] / [Bipartite.Unsupported] when the
    union does not fit the requested family; [`Auto] never raises for
    shape reasons. [par] lets the solver fan work out intra-query; every
    solver's result is bit-identical to its sequential run. [cache]
    shares solved conjunction terms across calls on the general
    (inclusion-exclusion) paths only — see {!Term_cache} for the
    bit-identity contract; the other solvers ignore it. *)

type approx =
  | Rejection of { n : int }
  | Mis_lite of { d : int; n_per : int; compensate : bool }
  | Mis_adaptive of { n_per : int; delta_d : int; d_max : int; tol : float }
  | Mis_full of { n_per : int }

val approx_name : approx -> string

val approx_prob :
  ?par:Util.Par.t ->
  approx ->
  Rim.Mallows.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  Estimate.t

type t = Exact of exact | Approx of approx
(** A solver choice carried by the PPD query-evaluation layer. *)

val name : t -> string

val to_string : t -> string
(** Canonical name ({!exact_name} / {!approx_name}); round-trips through
    {!of_string}. *)

val valid_names : string list
(** Every name {!of_string} accepts: the canonical {!to_string} outputs
    plus the historical CLI aliases. *)

val of_string : string -> (t, string) result
(** Parse a solver name (case-insensitive, surrounding whitespace
    ignored). Accepts exactly {!valid_names}; approximate solvers get
    their default parameters. The [Error] message enumerates
    {!valid_names} — it is echoed verbatim in server error responses. *)

val prob :
  ?budget:Util.Timer.budget ->
  ?par:Util.Par.t ->
  ?cache:Term_cache.t ->
  t ->
  Rim.Mallows.t ->
  Prefs.Labeling.t ->
  Prefs.Pattern_union.t ->
  Util.Rng.t ->
  float
(** Convenience wrapper used by the query-evaluation layer: exact solvers
    run on the Mallows model's RIM form, approximate solvers return their
    estimate's value. The result is clamped to [0, 1] — inclusion-exclusion
    cancellation ({!General.prob}) and sampling noise can both leave tiny
    out-of-range residue — with a debug log on the [hardq.solver] source
    when the clamp fires. *)

val default_exact : t

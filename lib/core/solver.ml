type exact = [ `Auto | `Two_label | `Bipartite | `Bipartite_basic | `General | `Brute ]

let exact_name : exact -> string = function
  | `Auto -> "auto"
  | `Two_label -> "two-label"
  | `Bipartite -> "bipartite"
  | `Bipartite_basic -> "bipartite-basic"
  | `General -> "general"
  | `Brute -> "brute"

(* [cache] reaches only the general (inclusion-exclusion) paths: the
   other exact solvers have no conjunction terms to share, and the
   estimators are sampler-driven. *)
let exact_prob ?budget ?par ?cache ?kernel which model lab gu =
  match which with
  | `Two_label -> Two_label.prob ?budget ?par ?kernel model lab gu
  | `Bipartite -> Bipartite.prob ?budget ?par ?kernel model lab gu
  | `Bipartite_basic -> Bipartite.prob_basic ?budget ?par ?kernel model lab gu
  | `General -> General.prob ?budget ?par ?cache ?kernel model lab gu
  | `Brute -> Brute.prob ?par model lab gu
  | `Auto -> (
      match Prefs.Pattern_union.kind gu with
      | Prefs.Pattern_union.Two_label ->
          Two_label.prob ?budget ?par ?kernel model lab gu
      | Prefs.Pattern_union.Bipartite ->
          Bipartite.prob ?budget ?par ?kernel model lab gu
      | Prefs.Pattern_union.General ->
          General.prob ?budget ?par ?cache ?kernel model lab gu)

type approx =
  | Rejection of { n : int }
  | Mis_lite of { d : int; n_per : int; compensate : bool }
  | Mis_adaptive of { n_per : int; delta_d : int; d_max : int; tol : float }
  | Mis_full of { n_per : int }

let approx_name = function
  | Rejection _ -> "rejection"
  | Mis_lite _ -> "mis-amp-lite"
  | Mis_adaptive _ -> "mis-amp-adaptive"
  | Mis_full _ -> "mis-amp"

let approx_prob ?par which mal lab gu rng =
  match which with
  | Rejection { n } -> Rejection.estimate ?par ~n (Rim.Mallows.to_rim mal) lab gu rng
  | Mis_lite { d; n_per; compensate } ->
      Mis_amp_lite.estimate ~compensate ~d ~n_per mal lab gu rng
  | Mis_adaptive { n_per; delta_d; d_max; tol } ->
      (Mis_amp_adaptive.estimate ~n_per ~delta_d ~d_max ~tol mal lab gu rng)
        .Mis_amp_adaptive.estimate
  | Mis_full { n_per } -> Mis_amp.estimate_union ~n_per mal lab gu rng

type t = Exact of exact | Approx of approx

let name = function Exact e -> exact_name e | Approx a -> approx_name a
let to_string = name

(* Name table: canonical name first, then the historical CLI aliases. Both
   [of_string] and its error message are derived from this table, so the
   enumeration of valid names (echoed verbatim to remote clients by the
   server's error responses) can never drift from what is accepted. *)
let names =
  [
    ([ "auto" ], Exact `Auto);
    ([ "two-label"; "two_label" ], Exact `Two_label);
    ([ "bipartite" ], Exact `Bipartite);
    ([ "bipartite-basic"; "bipartite_basic" ], Exact `Bipartite_basic);
    ([ "general" ], Exact `General);
    ([ "brute" ], Exact `Brute);
    ([ "rejection" ], Approx (Rejection { n = 50_000 }));
    ( [ "mis-amp-lite"; "mis-lite" ],
      Approx (Mis_lite { d = 10; n_per = 1000; compensate = true }) );
    ( [ "mis-amp-adaptive"; "mis-adaptive" ],
      Approx (Mis_adaptive { n_per = 1000; delta_d = 5; d_max = 50; tol = 0.05 }) );
    ([ "mis-amp"; "mis-full" ], Approx (Mis_full { n_per = 2000 }))
  ]

let valid_names = List.concat_map fst names

let of_string s =
  let wanted = String.lowercase_ascii (String.trim s) in
  match
    List.find_opt (fun (aliases, _) -> List.mem wanted aliases) names
  with
  | Some (_, t) -> Ok t
  | None ->
      Error
        (Printf.sprintf "unknown solver %S (valid names: %s)" wanted
           (String.concat ", " valid_names))

let log_src = Logs.Src.create "hardq.solver" ~doc:"Solver dispatch"

module Log = (val Logs.src_log log_src)

(* Query answers are probabilities. Inclusion-exclusion cancellation (and, for
   the estimators, sampling noise) can step outside [0, 1] by floating-point
   residue; clamp at this boundary and leave a debug trace when it fires. *)
let clamp which raw =
  if raw >= 0. && raw <= 1. then raw
  else begin
    let clamped = min 1. (max 0. raw) in
    Log.debug (fun k ->
        k "%s solver returned %.17g outside [0, 1]; clamped to %g" which raw
          clamped);
    clamped
  end

let prob ?budget ?par ?cache ?kernel t mal lab gu rng =
  match t with
  | Exact e ->
      clamp (exact_name e)
        (exact_prob ?budget ?par ?cache ?kernel e (Rim.Mallows.to_rim mal) lab gu)
  | Approx a ->
      (* Raw estimates are unclamped (the accuracy experiments need them). *)
      clamp (approx_name a) (Estimate.value (approx_prob ?par a mal lab gu rng))

let default_exact = Exact `Auto

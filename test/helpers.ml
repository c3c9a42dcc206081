(* Shared helpers for the test suite: random model/labeling/pattern
   generators, floating-point assertions and the binaries' usage-error
   check. *)

let rng seed = Util.Rng.make seed

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* Run [binary args] and require a command-line usage error: exit 124
   and a message on stderr naming [flag]. A binary that wrongly accepts
   the flag and starts serving is killed after 20 s (exit 137). *)
let usage_error ~flag binary args =
  if not (Sys.file_exists binary) then Alcotest.failf "binary not found at %s" binary;
  let err = Filename.temp_file "hardq_test_usage" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  let code =
    Sys.command
      (String.concat " "
         (List.map Filename.quote ([ "timeout"; "-s"; "KILL"; "20"; binary ] @ args))
      ^ " >/dev/null 2>" ^ Filename.quote err)
  in
  Alcotest.(check int) (String.concat " " args ^ ": cmdliner usage error") 124 code;
  let ic = open_in err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (contains msg flag) then
    Alcotest.failf "%s %s: error does not name %s: %s" binary
      (String.concat " " args) flag msg

let check_close ?(eps = 1e-9) what expected actual =
  if abs_float (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (|diff| = %.3g)" what expected
      actual
      (abs_float (expected -. actual))

let check_rel ?(tol = 0.05) what expected actual =
  let err = Util.Stats.relative_error ~exact:expected actual in
  if err > tol then
    Alcotest.failf "%s: expected ~%.6g, got %.6g (rel err %.3g > %.3g)" what expected
      actual err tol

(* A random Mallows model over items 0..m-1. *)
let random_mallows ?phi r m =
  let phi = match phi with Some p -> p | None -> Util.Rng.float r 1. in
  Rim.Mallows.make ~center:(Prefs.Ranking.of_array (Util.Rng.permutation r m)) ~phi

(* A random RIM(σ, Π) over items 0..m-1 with an arbitrary distribution
   in every insertion row: more general than Mallows or one-φ-per-step
   generalized Mallows. About one row in four is a point mass, so rigid
   insertions and zero-probability rankings occur too. *)
let random_rim r m =
  let row i =
    if Util.Rng.int r 4 = 0 then
      let j0 = Util.Rng.int r (i + 1) in
      Array.init (i + 1) (fun j -> if j = j0 then 1. else 0.)
    else
      let w = Array.init (i + 1) (fun _ -> 0.05 +. Util.Rng.float r 1.) in
      let sum = Array.fold_left ( +. ) 0. w in
      Array.map (fun x -> x /. sum) w
  in
  Rim.Model.make
    ~sigma:(Prefs.Ranking.of_array (Util.Rng.permutation r m))
    ~pi:(Array.init m row)

(* A random labeling of m items with n_labels labels; each item gets each
   label independently with probability p. *)
let random_labeling ?(p = 0.4) r ~m ~n_labels =
  Prefs.Labeling.make
    (Array.init m (fun _ ->
         List.filter (fun _ -> Util.Rng.float r 1. < p) (List.init n_labels Fun.id)))

(* A random two-label pattern over single-label nodes. *)
let random_two_label_pattern r ~n_labels =
  let l = Util.Rng.int r n_labels in
  let rest = Util.Rng.int r (n_labels - 1) in
  let rl = if rest >= l then rest + 1 else rest in
  Prefs.Pattern.two_label ~left:[ l ] ~right:[ rl ]

(* A random bipartite pattern: n_left sources, n_right targets, random
   edges (at least one). *)
let random_bipartite_pattern r ~n_labels ~n_left ~n_right =
  let pick () = Util.Rng.int r n_labels in
  let nodes = List.init (n_left + n_right) (fun _ -> [ pick () ]) in
  let edges = ref [] in
  for a = 0 to n_left - 1 do
    for b = 0 to n_right - 1 do
      if Util.Rng.float r 1. < 0.5 then edges := (a, n_left + b) :: !edges
    done
  done;
  if !edges = [] then edges := [ (0, n_left) ];
  Prefs.Pattern.make ~nodes ~edges:!edges

(* A random DAG pattern (possibly with chains). *)
let random_general_pattern r ~n_labels ~n_nodes =
  let nodes = List.init n_nodes (fun _ -> [ Util.Rng.int r n_labels ]) in
  let edges = ref [] in
  for a = 0 to n_nodes - 2 do
    for b = a + 1 to n_nodes - 1 do
      if Util.Rng.float r 1. < 0.45 then edges := (a, b) :: !edges
    done
  done;
  if !edges = [] then edges := [ (0, n_nodes - 1) ];
  Prefs.Pattern.make ~nodes ~edges:!edges

let random_union pat_gen r ~z = Prefs.Pattern_union.make (List.init z (fun _ -> pat_gen r))

(* Domain-count matrix: [HARDQ_TEST_DOMAINS] selects how many domains the
   intra-query parallelism suite computes with — "1" (everything inline),
   "2" (the smallest genuinely parallel pool), or "recommended" (one
   domain per available core). `make ci` loops over all three; a plain
   run uses 2 so the parallel code paths are always exercised. Test
   names echo the setting so a failure report pins the configuration. *)
let test_domains =
  match Sys.getenv_opt "HARDQ_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match String.lowercase_ascii (String.trim s) with
      | "recommended" -> max 1 (Domain.recommended_domain_count ())
      | s -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> n
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "HARDQ_TEST_DOMAINS=%S: expected 1, 2 or \"recommended\"" s)))

let domains_label = Printf.sprintf "[%d domains]" test_domains

(* Every QCheck property runs from a fixed random state so failures are
   reproducible; [SEED=n] in the environment reruns the whole suite on a
   different stream, and the seed in use is part of the test name so a
   failure report names its own reproduction. *)
let qcheck_seed =
  match Sys.getenv_opt "SEED" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None -> invalid_arg (Printf.sprintf "SEED=%S is not an integer" s))
  | None -> 42

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| qcheck_seed |])
    (QCheck.Test.make ~count
       ~name:(Printf.sprintf "%s [SEED=%d]" name qcheck_seed)
       gen prop)

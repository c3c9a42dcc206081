(* Observability: inclusion-exclusion terms actually solved (the
   2^z - 1 subset conjunctions are the general solver's cost driver). *)
let c_calls = Obs.counter "solver.general.calls"
let c_terms = Obs.counter "solver.general.ie_terms"
let c_par_terms = Obs.counter "solver.general.par_terms"
let h_terms = Obs.histogram "solver.general.ie_terms_per_call"

let conjunctions gu =
  let pats = Prefs.Pattern_union.patterns gu in
  let out = ref [] in
  Util.Combinat.iter_nonempty_subsets pats (fun s ->
      out := (Prefs.Pattern.conjunction s, List.length s) :: !out);
  List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !out)

(* How one IE term is solved. A term whose every node is carried by
   exactly one item of σ (σ's inverse decides membership, the rule Conj
   uses) is a partial order over those items, and RIM matching
   (Po_solver) solves it over their positions alone. A node that no item
   of σ carries makes the term 0, and so do edges that pin to a
   self-loop or a cycle. Every other term keeps the signature DP. *)
type route = Zero | Items of Prefs.Partial_order.t | Labels

let route model lab c =
  let pos = Rim.Model.positions model in
  let in_sigma x = x < Array.length pos && pos.(x) >= 0 in
  let carriers =
    Array.map
      (fun node -> List.filter in_sigma (Prefs.Labeling.items_with_all lab node))
      (Prefs.Pattern.nodes c)
  in
  if Array.exists (( = ) []) carriers then Zero
  else if Array.exists (fun l -> List.compare_length_with l 1 > 0) carriers then
    Labels
  else
    let item v = List.hd carriers.(v) in
    match
      Prefs.Partial_order.make_opt
        ~items:(List.map List.hd (Array.to_list carriers))
        ~edges:(List.map (fun (u, v) -> (item u, item v)) (Prefs.Pattern.edges c))
    with
    | Some po -> Items po
    | None -> Zero

let solve_term ?budget ?(par = Util.Par.inline) model lab c =
  match route model lab c with
  | Zero -> 0.
  | Items po -> Po_solver.prob ?budget model po
  | Labels -> Pattern_solver.prob ?budget ~par model lab c

let prob ?budget ?(par = Util.Par.inline) ?cache model lab gu =
  let terms = Array.of_list (conjunctions gu) in
  let probs = Array.make (Array.length terms) 0. in
  (* Cross-call term cache (capability-injected by the engine): look up
     each term before the parallel region, solve only the misses,
     publish them afterwards. Both term solvers are deterministic and
     RNG-free, so a reused float is bit-identical to solving again. Both
     closures run on the calling domain only. *)
  let find, store =
    match cache with
    | None -> ((fun _ -> None), fun _ _ -> ())
    | Some k -> (k.Term_cache.find, k.Term_cache.store)
  in
  let misses = ref [] in
  Array.iteri
    (fun t (c, _) ->
      match find c with
      | Some p -> probs.(t) <- p
      | None -> misses := t :: !misses)
    terms;
  let misses = Array.of_list (List.rev !misses) in
  let n_solved = Array.length misses in
  (* Misses solve in parallel, each into its own slot; with the inline
     capability this degenerates to the sequential loop. The DP layers
     of each term share the same pool (nested fan-out). *)
  Util.Par.share par ~n:n_solved (fun k ->
      let t = misses.(k) in
      probs.(t) <- solve_term ?budget ~par model lab (fst terms.(t)));
  Array.iter (fun t -> store (fst terms.(t)) probs.(t)) misses;
  let total = ref 0. in
  Array.iteri
    (fun t (_, size) ->
      let sign = if size land 1 = 1 then 1. else -1. in
      total := !total +. (sign *. probs.(t)))
    terms;
  Obs.Counter.incr c_calls;
  (* Solved terms only: terms answered by the injected cross-call cache
     cost nothing here (the engine counts those hits in its own
     term-tier counters). *)
  Obs.Counter.add c_terms n_solved;
  if Util.Par.width par > 1 then Obs.Counter.add c_par_terms n_solved;
  Obs.Histogram.observe h_terms n_solved;
  (* Inclusion-exclusion cancellation can leave tiny out-of-range residue;
     the value is returned raw and clamped at the Solver.prob boundary. *)
  !total

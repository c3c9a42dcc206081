(* Observability: inclusion-exclusion terms actually evaluated (the
   2^z - 1 subset conjunctions are the general solver's cost driver),
   plus terms answered from the per-call conjunction memo. *)
let c_calls = Obs.counter "solver.general.calls"
let c_terms = Obs.counter "solver.general.ie_terms"
let c_memo_hits = Obs.counter "solver.general.memo_hits"
let c_par_terms = Obs.counter "solver.general.par_terms"
let h_terms = Obs.histogram "solver.general.ie_terms_per_call"

let conjunctions gu =
  let pats = Prefs.Pattern_union.patterns gu in
  let out = ref [] in
  Util.Combinat.iter_nonempty_subsets pats (fun s ->
      out := (Prefs.Pattern.conjunction s, List.length s) :: !out);
  List.sort (fun (_, a) (_, b) -> compare a b) (List.rev !out)

(* Structural identity of a conjunction pattern: two terms with the same
   key run the exact same computation, so reusing the representative's
   float is bit-identical to evaluating both. *)
let term_key c = (Prefs.Pattern.nodes c, Prefs.Pattern.edges c)

let prob_instrumented ?budget ?(par = Util.Par.inline) ?(memo = true) ?cache
    ?kernel model lab gu =
  let terms = Array.of_list (conjunctions gu) in
  let n = Array.length terms in
  (* Deduplicate structurally identical conjunctions: each term points at
     its representative slot; only representatives are evaluated. *)
  let rep = Array.make n 0 in
  let n_reps = ref 0 in
  (if memo then begin
     let seen = Hashtbl.create 16 in
     Array.iteri
       (fun t (c, _) ->
         let key = term_key c in
         match Hashtbl.find_opt seen key with
         | Some r -> rep.(t) <- r
         | None ->
             Hashtbl.add seen key t;
             rep.(t) <- t;
             incr n_reps)
       terms
   end
   else begin
     Array.iteri (fun t _ -> rep.(t) <- t) terms;
     n_reps := n
   end);
  let reps = Array.make !n_reps 0 in
  (let k = ref 0 in
   Array.iteri
     (fun t r ->
       if r = t then begin
         reps.(!k) <- t;
         incr k
       end)
     rep);
  let probs = Array.make n 0. and secs = Array.make n 0. in
  (* Cross-call term cache (capability-injected by the engine): look up
     each representative before the parallel region, evaluate only the
     misses, publish afterwards. [Pattern_solver.prob] is deterministic
     and RNG-free, so a reused float is bit-identical to re-evaluating;
     hits report zero seconds, like memo hits. Both closures run on the
     calling domain only. *)
  let solved = Array.make !n_reps false in
  let n_unsolved = ref !n_reps in
  (match cache with
  | None -> ()
  | Some c ->
      Array.iteri
        (fun k t ->
          match c.Term_cache.find (fst terms.(t)) with
          | Some p ->
              probs.(t) <- p;
              solved.(k) <- true;
              decr n_unsolved
          | None -> ())
        reps);
  let unsolved = Array.make !n_unsolved 0 in
  (let k = ref 0 in
   Array.iteri
     (fun i t ->
       if not solved.(i) then begin
         unsolved.(!k) <- t;
         incr k
       end)
     reps);
  (* Representatives evaluate in parallel, each into its own slot; with
     the inline capability this degenerates to the sequential loop. The
     DP layers of each term share the same pool (nested fan-out). *)
  Util.Par.share par ~n:!n_unsolved (fun k ->
      let t = unsolved.(k) in
      let c, _ = terms.(t) in
      let p, dt =
        Util.Timer.time (fun () ->
            Pattern_solver.prob ?budget ~par ?kernel model lab c)
      in
      probs.(t) <- p;
      secs.(t) <- dt);
  (match cache with
  | None -> ()
  | Some c ->
      Array.iter (fun t -> c.Term_cache.store (fst terms.(t)) probs.(t)) unsolved);
  let total = ref 0. and times = ref [] in
  Array.iteri
    (fun t (_, size) ->
      let r = rep.(t) in
      (* Memo hits report zero seconds: no evaluation happened. *)
      times := (size, (if r = t then secs.(t) else 0.)) :: !times;
      let sign = if size land 1 = 1 then 1. else -1. in
      total := !total +. (sign *. probs.(r)))
    terms;
  Obs.Counter.incr c_calls;
  (* Evaluated terms only: representatives answered by the injected
     cross-call cache cost nothing here (the engine counts those hits in
     its own term-tier counters). *)
  Obs.Counter.add c_terms !n_unsolved;
  Obs.Counter.add c_memo_hits (n - !n_reps);
  if Util.Par.width par > 1 then Obs.Counter.add c_par_terms !n_unsolved;
  Obs.Histogram.observe h_terms !n_unsolved;
  (* Inclusion-exclusion cancellation can leave tiny out-of-range residue;
     the value is returned raw and clamped at the Solver.prob boundary. *)
  (!total, List.rev !times)

let prob ?budget ?par ?memo ?cache ?kernel model lab gu =
  fst (prob_instrumented ?budget ?par ?memo ?cache ?kernel model lab gu)

(* Observability: draws from the model and draws matching the predicate.
   Accumulated locally, flushed once per estimate. *)
let c_draws = Obs.counter "sampler.rejection.draws"
let c_accepts = Obs.counter "sampler.rejection.accepts"

(* Fixed sampling chunk. Runs of n <= chunk_size consume the caller's
   stream directly (the historical behavior); larger runs pre-derive one
   child RNG per chunk from the caller's stream *sequentially*, so the
   estimate is a function of (seed, n) alone — never of the parallelism
   width or scheduling. *)
let chunk_size = 4096

let run ?(par = Util.Par.inline) ~n model pred rng =
  if n <= 0 then invalid_arg "Rejection: n <= 0";
  let t0 = Util.Timer.now () in
  let hits =
    if n <= chunk_size then begin
      let h = ref 0 in
      for _ = 1 to n do
        if pred (Rim.Model.sample model rng) then incr h
      done;
      !h
    end
    else begin
      let n_chunks = (n + chunk_size - 1) / chunk_size in
      let rngs = Array.make n_chunks rng in
      for c = 0 to n_chunks - 1 do
        rngs.(c) <- Util.Rng.split rng
      done;
      let partial = Array.make n_chunks 0 in
      Util.Par.share par ~n:n_chunks (fun c ->
          let r = rngs.(c) in
          let cnt = min chunk_size (n - (c * chunk_size)) in
          let h = ref 0 in
          for _ = 1 to cnt do
            if pred (Rim.Model.sample model r) then incr h
          done;
          partial.(c) <- !h);
      Array.fold_left ( + ) 0 partial
    end
  in
  Obs.Counter.add c_draws n;
  Obs.Counter.add c_accepts hits;
  {
    Estimate.value = float_of_int hits /. float_of_int n;
    n_samples = n;
    n_proposals = 1;
    overhead_time = 0.;
    sampling_time = Util.Timer.now () -. t0;
  }

let estimate ?par ~n model lab gu rng =
  run ?par ~n model (fun r -> Prefs.Matcher.matches_union lab gu r) rng

let estimate_subrankings ?par ~n model subs rng =
  run ?par ~n model
    (fun r -> List.exists (fun sub -> Prefs.Matcher.matches_subranking r ~sub) subs)
    rng

let samples_until ~exact ~rel_tol ~max_samples model lab gu rng =
  if exact <= 0. then invalid_arg "Rejection.samples_until: exact must be positive";
  let hits = ref 0 in
  let rec go n =
    if n > max_samples then `Exhausted
    else begin
      if Prefs.Matcher.matches_union lab gu (Rim.Model.sample model rng) then incr hits;
      let est = float_of_int !hits /. float_of_int n in
      if n >= 10 && Util.Stats.relative_error ~exact est <= rel_tol then `Converged n
      else go (n + 1)
    end
  in
  go 1

(* Observability: draws from the model and draws matching the predicate.
   Accumulated locally, flushed once per estimate. *)
let c_draws = Obs.counter "sampler.rejection.draws"
let c_accepts = Obs.counter "sampler.rejection.accepts"

type count = Any | Each

(* Fixed sampling chunk. Runs of n <= chunk_size consume the caller's
   stream directly (the historical behavior); larger runs pre-derive one
   child RNG per chunk from the caller's stream *sequentially*, so the
   hit count is a function of (seed, n) alone — never of the parallelism
   width or scheduling. *)
let chunk_size = 4096

(* [n] worlds from one stream. Every session's model is sampled in every
   world, so the stream advances the same whatever the predicates say;
   under [Any] only the predicate calls stop at the world's first hit. *)
let draw_worlds count sessions ~n rng =
  let total = ref 0 in
  for _ = 1 to n do
    let matched = ref 0 in
    for i = 0 to Array.length sessions - 1 do
      let model, pred = sessions.(i) in
      let r = Rim.Model.sample model rng in
      if (match count with Each -> true | Any -> !matched = 0) && pred r then
        incr matched
    done;
    total := !total + !matched
  done;
  !total

let draw ?(par = Util.Par.inline) ~count ~n sessions rng =
  if n <= chunk_size then draw_worlds count sessions ~n rng
  else begin
    let n_chunks = (n + chunk_size - 1) / chunk_size in
    let rngs = Array.make n_chunks rng in
    for c = 0 to n_chunks - 1 do
      rngs.(c) <- Util.Rng.split rng
    done;
    let partial = Array.make n_chunks 0 in
    Util.Par.share par ~n:n_chunks (fun c ->
        let n = min chunk_size (n - (c * chunk_size)) in
        partial.(c) <- draw_worlds count sessions ~n rngs.(c));
    Array.fold_left ( + ) 0 partial
  end

let run ?par ~n model pred rng =
  if n <= 0 then invalid_arg "Rejection: n <= 0";
  let t0 = Util.Timer.now () in
  let hits = draw ?par ~count:Each ~n [| (model, pred) |] rng in
  Obs.Counter.add c_draws n;
  Obs.Counter.add c_accepts hits;
  {
    Estimate.value = float_of_int hits /. float_of_int n;
    n_samples = n;
    n_proposals = 1;
    overhead_time = 0.;
    sampling_time = Util.Timer.now () -. t0;
  }

let union_event lab gu r = Prefs.Matcher.matches_union lab gu r

let estimate ?par ~n model lab gu rng = run ?par ~n model (union_event lab gu) rng

let samples_until ~exact ~rel_tol ~max_samples model lab gu rng =
  if exact <= 0. then invalid_arg "Rejection.samples_until: exact must be positive";
  let session = [| (model, union_event lab gu) |] in
  let rec go n hits =
    if n > max_samples then `Exhausted
    else begin
      let hits = hits + draw ~count:Each ~n:1 session rng in
      let est = float_of_int hits /. float_of_int n in
      if n >= 10 && Util.Stats.relative_error ~exact est <= rel_tol then `Converged n
      else go (n + 1) hits
    end
  in
  go 1 0

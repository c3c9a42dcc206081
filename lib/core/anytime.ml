(* Resumable anytime estimation: world-draw sampling in fixed,
   geometrically growing rounds, each round seeded independently so the
   frame sequence is a pure function of (rng_of_round, round count) —
   never of pool width, scheduling, or how many rounds the caller ends
   up requesting. See anytime.mli for the statistics. *)

let c_rounds = Obs.counter "sampler.anytime.rounds"
let c_draws = Obs.counter "sampler.anytime.draws"
let c_frames = Obs.counter "sampler.anytime.frames"

type task = Boolean | Count

type frame = {
  round : int;
  draws : int;
  estimate : float;
  ci_lo : float;
  ci_hi : float;
}

let width f = f.ci_hi -. f.ci_lo

type t = {
  task : task;
  sessions : (Rim.Model.t * (Prefs.Ranking.t -> bool)) array;
  rng_of_round : int -> Util.Rng.t;
  mutable rounds : int;  (* completed rounds *)
  mutable draws : int;  (* cumulative world draws *)
  mutable hits : int;  (* cumulative Bernoulli successes (pooled for Count) *)
  (* Running intersection envelope of the per-cumulative-draw
     Clopper–Pearson intervals, in p̂ scale (before the Count ×S rescale). *)
  mutable env_lo : float;
  mutable env_hi : float;
  mutable last : frame option;
}

let make ~task ~sessions ~rng_of_round =
  {
    task;
    sessions;
    rng_of_round;
    rounds = 0;
    draws = 0;
    hits = 0;
    env_lo = 0.;
    env_hi = 1.;
    last = None;
  }

let rounds t = t.rounds
let draws t = t.draws
let last t = t.last

(* 64, 128, 256, ..., capped at the sampler chunk size: cheap early
   frames while the CI is wide, bounded latency between late ones. *)
let max_round_draws = 4096

let round_draws r =
  if r >= 7 then max_round_draws else 64 lsl (r - 1)

let step t =
  let r = t.rounds + 1 in
  let draws_before = t.draws in
  let s = Array.length t.sessions in
  let frame =
    if s = 0 then
      (* Statically empty event: the answer is exactly 0 for both tasks
         (no session can match), so every frame is the degenerate point
         interval. The engine routes such plans exactly; this keeps the
         sampler total anyway. *)
      { round = r; draws = t.draws; estimate = 0.; ci_lo = 0.; ci_hi = 0. }
    else begin
      let n = round_draws r in
      let rng = t.rng_of_round r in
      let hits = ref 0 in
      (match t.task with
      | Boolean ->
          (* One Bernoulli trial per world: does ANY session match? Every
             session's model is sampled each world (uniform stream
             consumption); only the predicate calls short-circuit. *)
          for _ = 1 to n do
            let hit = ref false in
            Array.iter
              (fun (model, pred) ->
                let rk = Rim.Model.sample model rng in
                if (not !hit) && pred rk then hit := true)
              t.sessions;
            if !hit then incr hits
          done
      | Count ->
          (* S Bernoulli trials per world, pooled. *)
          for _ = 1 to n do
            Array.iter
              (fun (model, pred) ->
                if pred (Rim.Model.sample model rng) then incr hits)
              t.sessions
          done);
      t.draws <- t.draws + n;
      t.hits <- t.hits + !hits;
      let trials =
        match t.task with
        | Boolean -> t.draws
        | Count -> t.draws * s
      in
      let p_hat = float_of_int t.hits /. float_of_int trials in
      let lo, hi = Util.Stats.clopper_pearson_ci ~k:t.hits ~n:trials () in
      (* Intersect with the running envelope: widths become non-increasing
         by construction, and the envelope still contains the truth
         whenever each per-round interval does. An empty intersection
         (possible only if some interval already missed) collapses to its
         midpoint. *)
      let nl = max t.env_lo lo and nh = min t.env_hi hi in
      let nl, nh = if nl > nh then ((nl +. nh) /. 2., (nl +. nh) /. 2.) else (nl, nh) in
      t.env_lo <- nl;
      t.env_hi <- nh;
      let scale = match t.task with Boolean -> 1. | Count -> float_of_int s in
      let estimate = scale *. (min nh (max nl p_hat)) in
      {
        round = r;
        draws = t.draws;
        estimate;
        ci_lo = scale *. nl;
        ci_hi = scale *. nh;
      }
    end
  in
  t.rounds <- r;
  t.last <- Some frame;
  Obs.Counter.incr c_rounds;
  Obs.Counter.add c_draws (t.draws - draws_before);
  Obs.Counter.incr c_frames;
  frame

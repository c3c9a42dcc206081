(* Anytime serving: the fixed round schedule, sampler determinism and
   monotone CI envelopes, and the engine serve path — tightening frames
   under a CI target, the metamorphic prefix property (a tighter target
   strictly extends a looser target's frame sequence), byte-identity
   across pool widths, typed deadline degradation, the exact route's
   point interval and cooperative cancellation. Frame sequences are
   compared as their wire bytes (NDJSON progress lines), so these tests
   pin the codec together with the sampler. *)

let tc = Alcotest.test_case

let check_float_eq what expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected exactly %.17g, got %.17g" what expected actual

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let unit_round_draws_schedule () =
  Alcotest.(check (list int))
    "64·2^(r-1) capped at 4096"
    [ 64; 128; 256; 512; 1024; 2048; 4096; 4096; 4096 ]
    (List.map Hardq.Anytime.round_draws [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let sampler_sessions seed =
  let r = Helpers.rng seed in
  Array.init 3 (fun _ ->
      let model = Rim.Mallows.to_rim (Helpers.random_mallows r 5) in
      (model, fun ranking -> Prefs.Ranking.prefers ranking 0 1))

let make_sampler seed =
  Hardq.Anytime.make ~task:Hardq.Anytime.Boolean
    ~sessions:(sampler_sessions seed)
    ~rng_of_round:(fun r -> Util.Rng.derive 7 r)

let unit_sampler_deterministic_and_monotone () =
  let run () =
    let s = make_sampler 3 in
    List.init 5 (fun _ -> Hardq.Anytime.step s)
  in
  let a = run () and b = run () in
  if a <> b then Alcotest.fail "same seed produced different frame lists";
  ignore
    (List.fold_left
       (fun (prev_w, prev_draws) (f : Hardq.Anytime.frame) ->
         let w = Hardq.Anytime.width f in
         if w > prev_w then
           Alcotest.failf "width widened %.17g -> %.17g" prev_w w;
         if f.Hardq.Anytime.draws <= prev_draws then
           Alcotest.failf "draws did not grow (%d after %d)"
             f.Hardq.Anytime.draws prev_draws;
         if f.Hardq.Anytime.ci_lo > f.Hardq.Anytime.estimate
            || f.Hardq.Anytime.estimate > f.Hardq.Anytime.ci_hi
         then Alcotest.fail "estimate escaped its envelope";
         (w, f.Hardq.Anytime.draws))
       (infinity, 0) a);
  (* Cumulative draws follow the schedule exactly. *)
  let expected =
    List.fold_left ( + ) 0 (List.map Hardq.Anytime.round_draws [ 1; 2; 3; 4; 5 ])
  in
  match List.rev a with
  | last :: _ -> Alcotest.(check int) "draws" expected last.Hardq.Anytime.draws
  | [] -> assert false

(* ------------------------------------------------------------------ *)
(* Engine serve                                                        *)
(* ------------------------------------------------------------------ *)

let polls () =
  ( Datasets.Polls.generate ~n_candidates:10 ~n_voters:40 ~seed:3 (),
    Ppd.Parser.parse Datasets.Polls.query_two_label )

let sampling = Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 1 })

let frame_bytes f =
  Server.Json.to_string
    (Server.Protocol.progress_to_json (Server.Protocol.progress_of_frame f))

let serve ?(jobs = 1) ?(solver = sampling) ?cancelled slo =
  let db, q = polls () in
  Engine.with_engine
    Engine.Config.(default |> with_jobs jobs)
    (fun engine ->
      let frames = ref [] in
      let on_frame f = frames := f :: !frames in
      let served =
        Engine.serve engine ~on_frame ?cancelled
          (Engine.Request.make ~solver ~slo db q)
      in
      (served, List.rev !frames))

let anytime_of (served : Engine.served) =
  match served.Engine.anytime with
  | Some a -> a
  | None -> Alcotest.fail "SLO request served without anytime block"

let exact_answer () =
  let db, q = polls () in
  Engine.with_engine Engine.Config.default (fun engine ->
      Engine.Response.answer_float
        (Engine.eval engine (Engine.Request.make db q)))

let unit_serve_streams_tightening_frames () =
  let served, frames = serve (`Ci_width 0.15) in
  let a = anytime_of served in
  (match a.Engine.status with
  | `Final -> ()
  | `Timeout | `Cancelled -> Alcotest.fail "expected `Final under a 0.15 target");
  if List.length frames < 2 then
    Alcotest.failf "expected >= 2 frames, got %d" (List.length frames);
  Alcotest.(check int) "frames counted" (List.length frames) a.Engine.frames;
  let exact = exact_answer () in
  ignore
    (List.fold_left
       (fun prev (f : Hardq.Anytime.frame) ->
         let w = Hardq.Anytime.width f in
         if w > prev then Alcotest.failf "width widened %.17g -> %.17g" prev w;
         if exact < f.Hardq.Anytime.ci_lo || exact > f.Hardq.Anytime.ci_hi then
           Alcotest.failf "frame %d: exact=%.17g outside [%.6g, %.6g]"
             f.Hardq.Anytime.round exact f.Hardq.Anytime.ci_lo
             f.Hardq.Anytime.ci_hi;
         w)
       infinity frames);
  (match List.rev frames with
  | last :: _ ->
      if Hardq.Anytime.width last > 0.15 then
        Alcotest.failf "final width %.6g misses the 0.15 target"
          (Hardq.Anytime.width last);
      check_float_eq "terminal CI echoes the last frame" last.Hardq.Anytime.ci_lo
        a.Engine.ci_lo;
      check_float_eq "response is the last estimate" last.Hardq.Anytime.estimate
        (Engine.Response.answer_float served.Engine.response)
  | [] -> assert false)

let unit_serve_prefix_metamorphic () =
  (* Fixed seed: the round schedule is target-independent, so the looser
     target's frame sequence must be a strict byte-for-byte prefix of
     the tighter target's — the tighter run replays the same frames and
     keeps sampling. *)
  let _, loose = serve (`Ci_width 0.3) in
  let _, tight = serve (`Ci_width 0.05) in
  let lb = List.map frame_bytes loose and tb = List.map frame_bytes tight in
  if List.length lb >= List.length tb then
    Alcotest.failf "0.3 ran %d frame(s), 0.05 only %d — not a strict extension"
      (List.length lb) (List.length tb);
  List.iteri
    (fun i a ->
      let b = List.nth tb i in
      if a <> b then Alcotest.failf "frame %d diverged: %s vs %s" i a b)
    lb

let unit_serve_pool_width_determinism () =
  let _, f1 = serve ~jobs:1 (`Ci_width 0.1) in
  let _, f2 = serve ~jobs:2 (`Ci_width 0.1) in
  Alcotest.(check (list string))
    "same seed, any pool width: byte-identical frames"
    (List.map frame_bytes f1) (List.map frame_bytes f2)

let unit_serve_deadline_times_out_with_estimate () =
  (* An already-expired deadline still runs round 1: the reply is a
     typed timeout carrying the best estimate and its CI, not an
     error. *)
  let served, frames = serve (`Deadline 1e-4) in
  let a = anytime_of served in
  (match a.Engine.status with
  | `Timeout -> ()
  | `Final | `Cancelled -> Alcotest.fail "expected `Timeout under a 0.1ms deadline");
  if frames = [] then Alcotest.fail "timeout reply must still carry a frame";
  let p = Engine.Response.answer_float served.Engine.response in
  if p < a.Engine.ci_lo || p > a.Engine.ci_hi then
    Alcotest.failf "estimate %.17g outside its own CI [%.6g, %.6g]" p
      a.Engine.ci_lo a.Engine.ci_hi

let unit_serve_exact_route_point_interval () =
  (* Two-label polls is tractable: under an exact solver the SLO is met
     by the exact answer — no sampling, degenerate interval. *)
  let served, frames = serve ~solver:(Hardq.Solver.Exact `Auto) (`Ci_width 0.15) in
  let a = anytime_of served in
  (match a.Engine.status with
  | `Final -> ()
  | `Timeout | `Cancelled -> Alcotest.fail "exact route must conclude `Final");
  Alcotest.(check int) "no rounds" 0 a.Engine.rounds;
  Alcotest.(check int) "no frames" 0 a.Engine.frames;
  Alcotest.(check (list string)) "no frame callbacks" [] (List.map frame_bytes frames);
  let p = Engine.Response.answer_float served.Engine.response in
  check_float_eq "answer matches plain eval" (exact_answer ()) p;
  check_float_eq "point interval lo" p a.Engine.ci_lo;
  check_float_eq "point interval hi" p a.Engine.ci_hi

(* The exact route executes the work it compiled for routing: one
   [compile] span under [engine.serve], and no nested [engine.eval]
   re-running Algorithm 2. *)
let unit_serve_exact_route_compiles_once () =
  Obs.enable_tracing ();
  Obs.clear_trace ();
  let served, roots =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable_tracing ();
        Obs.clear_trace ())
      (fun () ->
        let served, _ =
          serve ~solver:(Hardq.Solver.Exact `Auto) (`Ci_width 0.1)
        in
        (served, Obs.trace_roots ()))
  in
  let rec count name s =
    List.fold_left
      (fun n c -> n + count name c)
      (if Obs.Span.name s = name then 1 else 0)
      (Obs.Span.children s)
  in
  let total name = List.fold_left (fun n r -> n + count name r) 0 roots in
  Alcotest.(check (list string)) "one engine.serve root" [ "engine.serve" ]
    (List.map Obs.Span.name roots);
  Alcotest.(check int) "one compile span" 1 (total "compile");
  Alcotest.(check int) "no nested engine.eval" 0 (total "engine.eval");
  check_float_eq "answer matches plain eval" (exact_answer ())
    (Engine.Response.answer_float served.Engine.response)

let unit_serve_cancellation () =
  (* The hook is polled after every round: flipping it after the first
     frame stops the loop with `Cancelled and the frames already emitted
     are exactly the prefix an uncancelled run would have produced. *)
  let served, frames = serve ~cancelled:(fun () -> true) (`Ci_width 0.0001) in
  let a = anytime_of served in
  (match a.Engine.status with
  | `Cancelled -> ()
  | `Final | `Timeout -> Alcotest.fail "expected `Cancelled");
  Alcotest.(check int) "stopped after the first round" 1 a.Engine.rounds;
  let _, uncancelled = serve (`Ci_width 0.0001) in
  (match (frames, uncancelled) with
  | f :: _, g :: _ ->
      Alcotest.(check string) "cancelled run is a prefix" (frame_bytes g)
        (frame_bytes f)
  | _ -> Alcotest.fail "expected at least one frame on both runs")

let suites =
  [
    ( "anytime.sampler",
      [
        tc "round-draws schedule" `Quick unit_round_draws_schedule;
        tc "deterministic, monotone envelope" `Quick
          unit_sampler_deterministic_and_monotone;
      ] );
    ( "anytime.serve",
      [
        tc "streams tightening frames to target" `Quick
          unit_serve_streams_tightening_frames;
        tc "tighter target strictly extends looser (prefix)" `Quick
          unit_serve_prefix_metamorphic;
        tc "pool-width byte determinism" `Quick unit_serve_pool_width_determinism;
        tc "deadline degrades to typed timeout" `Quick
          unit_serve_deadline_times_out_with_estimate;
        tc "exact route: point interval, no frames" `Quick
          unit_serve_exact_route_point_interval;
        tc "exact route compiles once, no nested eval" `Quick
          unit_serve_exact_route_compiles_once;
        tc "cancellation stops between rounds" `Quick unit_serve_cancellation;
      ] );
  ]

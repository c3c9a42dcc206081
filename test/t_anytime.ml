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

let make_sampler ?(task = Hardq.Anytime.Boolean) seed =
  Hardq.Anytime.make ~task
    ~sessions:(sampler_sessions seed)
    ~rng_of_round:(fun r -> Util.Rng.derive 7 r)

let frame_bytes f =
  Server.Json.to_string
    (Server.Protocol.progress_to_json (Server.Protocol.progress_of_frame f))

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

(* Golden streams, recorded before the draw loops were merged into
   [Rejection.draw]: the progress lines of rounds 1-8 of a fixed-seed
   sampler per task (round 8 is past the 4096-draw cap), and the bits of
   [Rejection.run] below and above the chunk size at pool widths 1 and 2.
   A draw loop that shifts any RNG stream fails here. *)
let golden_frames =
  [
    ( Hardq.Anytime.Boolean,
      [
        "{\"v\":1,\"frame\":\"progress\",\"round\":1,\"draws\":64,\"estimate\":0.734375,\"ci_lo\":0.41786011037508075,\"ci_hi\":0.937261011527815}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":2,\"draws\":192,\"estimate\":0.765625,\"ci_lo\":0.59144074765364429,\"ci_hi\":0.89370301960446952}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":3,\"draws\":448,\"estimate\":0.765625,\"ci_lo\":0.65560478994737448,\"ci_hi\":0.85554368751251353}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":4,\"draws\":960,\"estimate\":0.778125,\"ci_lo\":0.70598209825612435,\"ci_hi\":0.84039415047730048}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":5,\"draws\":1984,\"estimate\":0.766633064516129,\"ci_lo\":0.71673704209083722,\"ci_hi\":0.8119438868885549}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":6,\"draws\":4032,\"estimate\":0.7678571428571429,\"ci_lo\":0.73339898215750288,\"ci_hi\":0.80004900134281853}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":7,\"draws\":8128,\"estimate\":0.76906988188976377,\"ci_lo\":0.74508700924933979,\"ci_hi\":0.791924045679771}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":8,\"draws\":12224,\"estimate\":0.76734293193717273,\"ci_lo\":0.7478296158484532,\"ci_hi\":0.78611083592336417}";
      ] );
    ( Hardq.Anytime.Count,
      [
        "{\"v\":1,\"frame\":\"progress\",\"round\":1,\"draws\":64,\"estimate\":1.03125,\"ci_lo\":0.56665455056427128,\"ci_hi\":1.577146677717538}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":2,\"draws\":192,\"estimate\":1.125,\"ci_lo\":0.83422234044250132,\"ci_hi\":1.4378779186272013}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":3,\"draws\":448,\"estimate\":1.1339285714285714,\"ci_lo\":0.94000111670408426,\"ci_hi\":1.337136973500322}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":4,\"draws\":960,\"estimate\":1.1458333333333333,\"ci_lo\":1.0119067205666765,\"ci_hi\":1.2839528115140078}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":5,\"draws\":1984,\"estimate\":1.138608870967742,\"ci_lo\":1.0451418310955471,\"ci_hi\":1.2341455909132006}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":6,\"draws\":4032,\"estimate\":1.1257440476190477,\"ci_lo\":1.0601452821274735,\"ci_hi\":1.1923969858723438}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":7,\"draws\":8128,\"estimate\":1.1285679133858268,\"ci_lo\":1.0822440508719433,\"ci_hi\":1.1754105188610826}";
        "{\"v\":1,\"frame\":\"progress\",\"round\":8,\"draws\":12224,\"estimate\":1.1303992146596857,\"ci_lo\":1.0925793214360251,\"ci_hi\":1.1685622458337424}";
      ] );
  ]

let golden_run_bits =
  [
    (1000, 1, "0x1.ef9db22d0e56p-3");
    (10000, 1, "0x1.00b780346dc5dp-2");
    (1000, 2, "0x1.ef9db22d0e56p-3");
    (10000, 2, "0x1.00b780346dc5dp-2");
  ]

let unit_sampler_golden_frames () =
  List.iter
    (fun (task, expected) ->
      let s = make_sampler ~task 3 in
      let got = List.init 8 (fun _ -> frame_bytes (Hardq.Anytime.step s)) in
      if got <> expected then
        Alcotest.failf "%s frames moved; now:\n%s"
          (match task with Hardq.Anytime.Boolean -> "Boolean" | Count -> "Count")
          (String.concat ";\n" (List.map (Printf.sprintf "%S") got)))
    golden_frames

let unit_rejection_run_golden_bits () =
  let model, pred = (sampler_sessions 3).(0) in
  let got =
    List.concat_map
      (fun jobs ->
        let pool = Engine.Pool.create ~jobs () in
        Fun.protect
          ~finally:(fun () -> Engine.Pool.shutdown pool)
          (fun () ->
            List.map
              (fun n ->
                let e =
                  Hardq.Rejection.run ~par:(Engine.Pool.sharer pool) ~n model
                    pred (Util.Rng.make 11)
                in
                (n, jobs, Printf.sprintf "%h" e.Hardq.Estimate.value))
              [ 1000; 10_000 ]))
      [ 1; 2 ]
  in
  if got <> golden_run_bits then
    Alcotest.failf "Rejection.run bits moved; now:\n%s"
      (String.concat ";\n"
         (List.map (fun (n, j, h) -> Printf.sprintf "(%d, %d, %S)" n j h) got))

(* ------------------------------------------------------------------ *)
(* Engine serve                                                        *)
(* ------------------------------------------------------------------ *)

let polls () =
  ( Datasets.Polls.generate ~n_candidates:10 ~n_voters:40 ~seed:3 (),
    Ppd.Parser.parse Datasets.Polls.query_two_label )

let sampling = Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 1 })

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
  Alcotest.(check int) "one frame per round" (List.length frames) a.Engine.rounds;
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
  Alcotest.(check (list string)) "no frame callbacks" [] (List.map frame_bytes frames);
  let p = Engine.Response.answer_float served.Engine.response in
  check_float_eq "answer matches plain eval" (exact_answer ()) p;
  check_float_eq "point interval lo" p a.Engine.ci_lo;
  check_float_eq "point interval hi" p a.Engine.ci_hi

(* Algorithm 2 runs once per request: the [compile] span of
   [Request.make], before the engine; [engine.serve]'s exact route
   executes that plan with no [compile] span of its own and no nested
   [engine.eval]. *)
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
  Alcotest.(check (list string)) "request compile, then one engine.serve"
    [ "compile"; "engine.serve" ] (List.map Obs.Span.name roots);
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

(* ------------------------------------------------------------------ *)
(* Interval coverage near 0 and 1                                      *)
(* ------------------------------------------------------------------ *)

let unit_interval_values () =
  let ci ?alpha k n = Util.Stats.clopper_pearson_ci ?alpha ~k ~n () in
  (* 63 hits in 64 draws is a 0.26% outcome at p = 0.99996; a z = 5
     Wilson interval tops out at 0.99942 there and misses it. *)
  let _, hi = ci 63 64 in
  if hi < 0.99996 then Alcotest.failf "63/64: upper bound %.17g < 0.99996" hi;
  List.iter
    (fun n ->
      check_float_eq (Printf.sprintf "0/%d lower bound" n) 0. (fst (ci 0 n));
      check_float_eq (Printf.sprintf "%d/%d upper bound" n n) 1. (snd (ci n n)))
    [ 1; 64; 1 lsl 20 ];
  let lo, hi = ci ~alpha:0.05 5 10 in
  Helpers.check_close ~eps:5e-5 "5/10 at 95%: lower" 0.1871 lo;
  Helpers.check_close ~eps:5e-5 "5/10 at 95%: upper" 0.8129 hi;
  (* Finite and nested around the estimate at the largest pooled trial
     counts a serve reaches (max_serve_draws x sessions). *)
  List.iter
    (fun (k, n) ->
      let lo, hi = ci k n and p = float_of_int k /. float_of_int n in
      if not (Float.is_finite lo && Float.is_finite hi && lo <= p && p <= hi) then
        Alcotest.failf "%d/%d: [%.17g, %.17g] does not bracket %.17g" k n lo hi p)
    [ (1, 1 lsl 26); (1 lsl 25, 1 lsl 26); ((1 lsl 26) - 1, 1 lsl 26) ]

(* The two corpus cases whose exact answers sit nearest 1 and 0. *)
let near_one_case =
  {|hardq-case v1
relation "C" "item" "cat" "grp" "num"
tuple "i0" "A" "G1" 1
tuple "i1" "A" "G2" 2
tuple "i2" "A" "G3" 3
tuple "i3" "B" "G1" 4
tuple "i4" "B" "G2" 5
tuple "i5" "B" "G3" 6
tuple "i6" "A" "G1" 7
prelation "P" "sid"
session "s0" phi 0x1.8p-1 center 2 0 6 4 1 5 3
session "s1" phi 0x1p-2 center 6 5 4 3 2 1 0
session "s2" phi 0x1.d70a3d70a3d71p-1 center 0 1 2 3 4 5 6
query Q() :- P(_; x0; x1), C(x0, "A", g, _), C(x1, "B", g, _).
|}

let near_zero_case =
  {|hardq-case v1
relation "C" "item" "cat" "grp" "num"
tuple "i0" "B" "G1" 0
tuple "i1" "A" "G2" 5
tuple "i2" "B" "G1" 3
tuple "i3" "B" "G1" 3
prelation "P" "sid"
session "s0" phi 0x1.91c05f4846238p-2 center 1 2 0 3
session "s1" phi 0x1.1078017c098c6p-2 center 2 1 0 3
query Q() :- P(_; x0; x1), P(_; x1; x2), P(_; "i3"; x0), C(x0, c, g, _), C(x1, _, _, _), C(x2, c, g, n2), n2 > 1.
|}

(* Forced-rejection serves at 300 seeds each: no streamed frame may
   exclude the exact answer. A z = 5 Wilson interval, which is not valid
   with few misses or few hits, excludes it for both cases at some of
   these seeds. *)
let unit_serve_frames_cover_near_0_and_1 () =
  Engine.with_engine
    Engine.Config.(default |> with_jobs 1)
    (fun engine ->
      List.iter
        (fun (name, text) ->
          let { Ppd.Case.db; query; _ } =
            match Ppd.Case.of_string text with
            | Ok c -> c
            | Error msg -> Alcotest.failf "%s: %s" name msg
          in
          let exact =
            Engine.Response.answer_float
              (Engine.eval engine (Engine.Request.make db query))
          in
          for seed = 1 to 300 do
            ignore
              (Engine.serve engine
                 ~on_frame:(fun (f : Hardq.Anytime.frame) ->
                   let lo = f.Hardq.Anytime.ci_lo and hi = f.Hardq.Anytime.ci_hi in
                   if exact < lo || exact > hi then
                     Alcotest.failf
                       "%s, seed %d, frame %d: exact %.17g outside [%.17g, %.17g]" name
                       seed f.Hardq.Anytime.round exact lo hi)
                 (Engine.Request.make ~solver:sampling ~seed ~slo:(`Ci_width 0.15) db
                    query))
          done)
        [ ("near 1", near_one_case); ("near 0", near_zero_case) ])

let suites =
  [
    ( "anytime.sampler",
      [
        tc "round-draws schedule" `Quick unit_round_draws_schedule;
        tc "deterministic, monotone envelope" `Quick
          unit_sampler_deterministic_and_monotone;
        tc "golden frames, both tasks" `Quick unit_sampler_golden_frames;
        tc "golden Rejection.run bits" `Quick unit_rejection_run_golden_bits;
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
        tc "exact binomial interval values" `Quick unit_interval_values;
        tc "streamed CIs cover answers near 0 and 1" `Quick
          unit_serve_frames_cover_near_0_and_1;
      ] );
  ]

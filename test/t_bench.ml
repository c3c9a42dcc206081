(* The bench harness's machine-readable output: run the server load
   generator and a smoke-scale fig15 pass, then validate the emitted
   JSON against the schema the plotting/CI tooling consumes. A silent
   field rename here breaks every downstream consumer, so the schema is
   pinned by test. *)

let tc = Alcotest.test_case

let read_file path = In_channel.with_open_text path In_channel.input_all

let parse_line what line =
  match Server.Json.of_string line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "%s: bad JSON (%s) in %S" what msg line

let get what j path =
  let rec go j = function
    | [] -> j
    | k :: rest -> (
        match Server.Json.member k j with
        | Some v -> go v rest
        | None ->
            Alcotest.failf "%s: missing field %s" what (String.concat "." path))
  in
  go j path

let float_field what j path =
  match Server.Json.to_float (get what j path) with
  | Some f -> f
  | None -> Alcotest.failf "%s: %s is not a number" what (String.concat "." path)

let int_field what j path =
  match Server.Json.to_int (get what j path) with
  | Some i -> i
  | None -> Alcotest.failf "%s: %s is not an int" what (String.concat "." path)

let str_field what j path =
  match Server.Json.to_string_opt (get what j path) with
  | Some s -> s
  | None -> Alcotest.failf "%s: %s is not a string" what (String.concat "." path)

let unit_loadgen_schema () =
  let out = Filename.temp_file "hardq_bench_loadgen" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "../bench/loadgen.exe --connections 2 --requests 4 --size 6 --sessions \
       12 --out %s >/dev/null 2>&1"
      (Filename.quote out)
  in
  Alcotest.(check int) "loadgen exits 0" 0 (Sys.command cmd);
  let j = parse_line "loadgen" (String.trim (read_file out)) in
  Alcotest.(check string) "bench name" "server_loadgen" (str_field "loadgen" j [ "bench" ]);
  Alcotest.(check string) "dataset" "polls" (str_field "loadgen" j [ "dataset" ]);
  Alcotest.(check int) "size echoed" 6 (int_field "loadgen" j [ "size" ]);
  Alcotest.(check int) "sessions echoed" 12 (int_field "loadgen" j [ "sessions" ]);
  let ok = int_field "loadgen" j [ "ok" ]
  and shed = int_field "loadgen" j [ "shed" ]
  and failed = int_field "loadgen" j [ "failed" ] in
  Alcotest.(check int) "every request accounted for" 8 (ok + shed + failed);
  Alcotest.(check int) "no transport failures" 0 failed;
  let wall = float_field "loadgen" j [ "wall_s" ] in
  if not (wall > 0.) then Alcotest.failf "wall_s not positive: %g" wall;
  if ok > 0 && not (float_field "loadgen" j [ "throughput_rps" ] > 0.) then
    Alcotest.fail "throughput_rps not positive despite ok answers";
  (* The latency summary: mean plus the median/percentile ladder, in
     order. *)
  let lat p = float_field "loadgen" j [ "latency_ms"; p ] in
  List.iter
    (fun p -> if not (lat p >= 0.) then Alcotest.failf "latency_ms.%s negative" p)
    [ "mean"; "p50"; "p95"; "p99"; "max" ];
  if lat "p50" > lat "p95" +. 1e-9 || lat "p95" > lat "p99" +. 1e-9
     || lat "p99" > lat "max" +. 1e-9
  then
    Alcotest.failf "percentiles not monotone: p50=%g p95=%g p99=%g max=%g"
      (lat "p50") (lat "p95") (lat "p99") (lat "max")

let unit_fig15_schema () =
  let out = Filename.temp_file "hardq_bench_fig15" ".json" in
  Sys.remove out;
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "HARDQ_BENCH_SMOKE=1 BENCH_JSON_OUT=%s ../bench/main.exe fig15 \
       >/dev/null 2>&1"
      (Filename.quote out)
  in
  Alcotest.(check int) "fig15 exits 0" 0 (Sys.command cmd);
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file out))
  in
  if lines = [] then Alcotest.fail "fig15 emitted no JSON rows";
  List.iter
    (fun line ->
      let j = parse_line "fig15" line in
      Alcotest.(check string)
        "bench name" "fig15-scaling" (str_field "fig15" j [ "bench" ]);
      if int_field "fig15" j [ "sessions" ] <= 0 then
        Alcotest.fail "sessions not positive";
      if int_field "fig15" j [ "distinct" ] < 1 then
        Alcotest.fail "distinct < 1";
      List.iter
        (fun f ->
          if not (float_field "fig15" j [ f ] >= 0.) then
            Alcotest.failf "%s negative" f)
        [ "cold_s"; "warm_s" ])
    lines

(* The kernel experiment must emit its full row set in smoke mode too —
   BENCH_kernel.json and the CI collector read the same schema. *)
let unit_kernel_schema () =
  let out = Filename.temp_file "hardq_bench_kernel" ".json" in
  Sys.remove out;
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "HARDQ_BENCH_SMOKE=1 BENCH_JSON_OUT=%s ../bench/main.exe kernel \
       >/dev/null 2>&1"
      (Filename.quote out)
  in
  Alcotest.(check int) "kernel exits 0" 0 (Sys.command cmd);
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file out))
  in
  if lines = [] then Alcotest.fail "kernel emitted no JSON rows";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let j = parse_line "kernel" line in
      Alcotest.(check string)
        "bench name" "kernel-scaling" (str_field "kernel" j [ "bench" ]);
      Alcotest.(check string) "mode" "kernel" (str_field "kernel" j [ "mode" ]);
      let solver = str_field "kernel" j [ "solver" ]
      and kernel = str_field "kernel" j [ "kernel" ] in
      if not (List.mem kernel [ "boxed"; "flat" ]) then
        Alcotest.failf "unknown kernel %S" kernel;
      Hashtbl.replace seen (solver, kernel)
        (float_field "kernel" j [ "prob" ]);
      if int_field "kernel" j [ "m" ] < 1 then Alcotest.fail "m < 1";
      if not (float_field "kernel" j [ "wall_s" ] >= 0.) then
        Alcotest.fail "wall_s negative";
      if not (float_field "kernel" j [ "ratio" ] > 0.) then
        Alcotest.fail "ratio not positive";
      if not (float_field "kernel" j [ "iqr_s" ] >= 0.) then
        Alcotest.fail "iqr_s negative";
      if int_field "kernel" j [ "repeats" ] < 3 then Alcotest.fail "repeats < 3";
      if int_field "kernel" j [ "nproc" ] < 1 then Alcotest.fail "nproc < 1")
    lines;
  (* Every solver must appear under both kernels, with the bit-identical
     probability the bench asserts internally surviving serialization. *)
  List.iter
    (fun solver ->
      match
        ( Hashtbl.find_opt seen (solver, "boxed"),
          Hashtbl.find_opt seen (solver, "flat") )
      with
      | Some pb, Some pf ->
          if pb <> pf then
            Alcotest.failf "%s: boxed prob %.17g <> flat prob %.17g" solver pb pf
      | _ -> Alcotest.failf "%s: missing a kernel row" solver)
    [ "two_label"; "bipartite"; "bipartite_basic"; "general"; "two_label_polls" ]

(* The planner-overhead experiment: all four query archetypes must emit
   a row in smoke mode, with the schema the overhead tracking reads. *)
let unit_plan_schema () =
  let out = Filename.temp_file "hardq_bench_plan" ".json" in
  Sys.remove out;
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "HARDQ_BENCH_SMOKE=1 BENCH_JSON_OUT=%s ../bench/main.exe plan \
       >/dev/null 2>&1"
      (Filename.quote out)
  in
  Alcotest.(check int) "plan exits 0" 0 (Sys.command cmd);
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file out))
  in
  if lines = [] then Alcotest.fail "plan emitted no JSON rows";
  let seen = Hashtbl.create 8 in
  List.iter
    (fun line ->
      let j = parse_line "plan" line in
      Alcotest.(check string)
        "bench name" "plan-overhead" (str_field "plan" j [ "bench" ]);
      Hashtbl.replace seen (str_field "plan" j [ "query" ]) ();
      if int_field "plan" j [ "m" ] < 1 then Alcotest.fail "m < 1";
      if int_field "plan" j [ "sessions" ] <= 0 then
        Alcotest.fail "sessions not positive";
      List.iter
        (fun f ->
          if not (float_field "plan" j [ f ] >= 0.) then
            Alcotest.failf "%s negative" f)
        [ "parse_us"; "compile_us"; "eval_s"; "prob" ];
      let share = float_field "plan" j [ "frontend_share" ] in
      if not (share >= 0. && share <= 1.) then
        Alcotest.failf "frontend_share outside [0,1]: %g" share;
      let verdict = str_field "plan" j [ "verdict" ] in
      if not (List.mem verdict [ "tractable"; "hard"; "estimated" ]) then
        Alcotest.failf "unknown verdict %S" verdict;
      if str_field "plan" j [ "leaf" ] = "" then Alcotest.fail "empty leaf")
    lines;
  List.iter
    (fun query ->
      if not (Hashtbl.mem seen query) then
        Alcotest.failf "%s: no row emitted" query)
    [ "datalog-two-label"; "disjunctive"; "rank"; "top-k" ]

(* The anytime experiment: every CI target plus the deadline row must
   appear in smoke mode, carrying the time-to-target/frames-per-second
   schema BENCH_anytime.json is tracked under. *)
let unit_anytime_schema () =
  let out = Filename.temp_file "hardq_bench_anytime" ".json" in
  Sys.remove out;
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "HARDQ_BENCH_SMOKE=1 BENCH_JSON_OUT=%s ../bench/main.exe anytime \
       >/dev/null 2>&1"
      (Filename.quote out)
  in
  Alcotest.(check int) "anytime exits 0" 0 (Sys.command cmd);
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file out))
  in
  if lines = [] then Alcotest.fail "anytime emitted no JSON rows";
  let targets = Hashtbl.create 8 and deadlines = ref 0 in
  List.iter
    (fun line ->
      let j = parse_line "anytime" line in
      Alcotest.(check string)
        "bench name" "anytime-serving" (str_field "anytime" j [ "bench" ]);
      let mode = str_field "anytime" j [ "mode" ] in
      let status = str_field "anytime" j [ "status" ] in
      (match mode with
      | "target-ci" ->
          let target = float_field "anytime" j [ "target_ci" ] in
          Hashtbl.replace targets target ();
          (* A met target pins the final width under it. *)
          if status = "final"
             && float_field "anytime" j [ "final_width" ] > target
          then Alcotest.failf "final width misses the %g target" target
      | "deadline" ->
          incr deadlines;
          if not (float_field "anytime" j [ "deadline_ms" ] > 0.) then
            Alcotest.fail "deadline_ms not positive"
      | _ -> Alcotest.failf "unknown mode %S" mode);
      if not (List.mem status [ "final"; "timeout" ]) then
        Alcotest.failf "unknown status %S" status;
      if int_field "anytime" j [ "sessions" ] <= 0 then
        Alcotest.fail "sessions not positive";
      let rounds = int_field "anytime" j [ "rounds" ]
      and frames = int_field "anytime" j [ "frames" ] in
      if rounds < 1 then Alcotest.fail "rounds < 1";
      Alcotest.(check int) "one frame per round" rounds frames;
      if int_field "anytime" j [ "draws" ] < 64 then
        Alcotest.fail "draws below the round-1 floor";
      if not (float_field "anytime" j [ "wall_s" ] >= 0.) then
        Alcotest.fail "wall_s negative";
      if not (float_field "anytime" j [ "frames_per_s" ] > 0.) then
        Alcotest.fail "frames_per_s not positive";
      if not (float_field "anytime" j [ "final_width" ] > 0.) then
        Alcotest.fail "final_width not positive";
      let p = float_field "anytime" j [ "estimate" ] in
      if not (p >= 0. && p <= 1.) then
        Alcotest.failf "estimate outside [0,1]: %g" p)
    lines;
  List.iter
    (fun target ->
      if not (Hashtbl.mem targets target) then
        Alcotest.failf "target %g: no row emitted" target)
    [ 0.2; 0.1; 0.05 ];
  Alcotest.(check int) "one deadline row" 1 !deadlines

let suites =
  [
    ( "bench.schema",
      [
        tc "loadgen emits the documented JSON" `Quick unit_loadgen_schema;
        tc "fig15 rows carry the scaling schema" `Quick unit_fig15_schema;
        tc "kernel rows carry the layout-ablation schema" `Quick
          unit_kernel_schema;
        tc "plan rows carry the frontend-overhead schema" `Quick
          unit_plan_schema;
        tc "anytime rows carry the time-to-target schema" `Quick
          unit_anytime_schema;
      ] );
  ]

(* The bench harness's machine-readable output: run a smoke-scale fig15
   pass, then validate the emitted JSON against the schema the plotting
   tooling consumes. A silent field rename here breaks every downstream
   consumer, so the schema is pinned by test. *)

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

let unit_fig15_schema () =
  let out = Filename.temp_file "hardq_bench_fig15" ".json" in
  Sys.remove out;
  Fun.protect ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
  @@ fun () ->
  let fig15 out =
    Sys.command
      (Printf.sprintf
         "HARDQ_BENCH_SMOKE=1 BENCH_JSON_OUT=%s ../bench/main.exe fig15 \
          >/dev/null 2>&1"
         (Filename.quote out))
  in
  (* An experiment that raises (here: its rows cannot be written) must
     fail the harness, or the asserts inside the experiments gate
     nothing. *)
  if fig15 (Filename.concat out "no-such-dir/rows.json") = 0 then
    Alcotest.fail "fig15 exits 0 although it could not write its rows";
  Alcotest.(check int) "fig15 exits 0" 0 (fig15 out);
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

let suites =
  [
    ( "bench.schema",
      [
        tc "fig15 rows carry the scaling schema" `Quick unit_fig15_schema;
      ] );
  ]

(* The observability subsystem: counter/histogram semantics, registry interning, snapshot/diff/JSON and span trees —
   including increments from several pool domains at once. *)

let tc = Alcotest.test_case

let with_tracing f =
  Obs.enable_tracing ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable_tracing ();
      Obs.clear_trace ())
    f

let unit_counter_basics () =
  let c = Obs.counter "test.counter.basics" in
  Obs.Counter.reset c;
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Counter.add c 0;
  Alcotest.(check int) "incr + add" 42 (Obs.Counter.value c);
  Obs.Counter.add c (-2);
  Alcotest.(check int) "negative deltas (gauge)" 40 (Obs.Counter.value c);
  Alcotest.(check string) "name" "test.counter.basics" (Obs.Counter.name c);
  Alcotest.(check bool)
    "interning returns the same counter" true
    (c == Obs.counter "test.counter.basics");
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c)

let unit_histogram_buckets () =
  let h = Obs.histogram "test.hist.buckets" in
  Obs.Histogram.reset h;
  (* bucket 0 holds the value 0; bucket b >= 1 holds [2^(b-1), 2^b) *)
  List.iter (Obs.Histogram.observe h) [ 0; 1; 2; 3; 4; 7; 8; 1000 ];
  Alcotest.(check int) "count" 8 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 1025 (Obs.Histogram.sum h);
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets"
    [ (0, 1); (1, 1); (2, 2); (4, 2); (8, 1); (512, 1) ]
    (Obs.Histogram.buckets h);
  Obs.Histogram.observe h (-5);
  Alcotest.(check int) "negative lands in bucket 0" 2
    (List.assoc 0 (Obs.Histogram.buckets h));
  Alcotest.(check int) "negative adds 0 to the sum" 1025 (Obs.Histogram.sum h);
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset" 0 (Obs.Histogram.count h)

let unit_registry_kind_clash () =
  ignore (Obs.counter "test.registry.clash");
  (match Obs.histogram "test.registry.clash" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  ignore (Obs.histogram "test.registry.clash.h");
  match Obs.counter "test.registry.clash.h" with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let unit_snapshot_diff_json () =
  let c = Obs.counter "test.snap.c" and h = Obs.histogram "test.snap.h" in
  Obs.Counter.reset c;
  Obs.Histogram.reset h;
  Obs.Counter.add c 3;
  let before = Obs.snapshot () in
  Obs.Counter.add c 4;
  Obs.Histogram.observe h 5;
  let after = Obs.snapshot () in
  let d = Obs.diff before after in
  Alcotest.(check int) "diff counts only the delta" 4 (Obs.count d "test.snap.c");
  Alcotest.(check int) "absolute value in snapshot" 7 (Obs.count after "test.snap.c");
  (match Obs.find d "test.snap.h" with
  | Some (Obs.Hist { count = 1; sum = 5; _ }) -> ()
  | _ -> Alcotest.fail "histogram delta missing or wrong");
  (* metrics that did not move are dropped from the diff *)
  let d2 = Obs.diff after (Obs.snapshot ()) in
  Alcotest.(check bool) "quiet metric dropped" true (Obs.find d2 "test.snap.c" = None);
  let json = Obs.json_of_snapshot ~extra:[ ("run", "\"t\"") ] after in
  let contains needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "JSON lacks %s in %s" needle json)
    [ "\"run\": \"t\""; "\"test.snap.c\": 7"; "\"count\": 1"; "\"sum\": 5" ]

let unit_spans_tree () =
  Alcotest.(check int)
    "with_span transparent when tracing is off" 7
    (Obs.with_span "quiet" (fun () -> 7));
  Alcotest.(check int) "no roots recorded" 0 (List.length (Obs.trace_roots ()));
  with_tracing (fun () ->
      Obs.with_span "root" (fun () ->
          Obs.with_span "child.a" ignore;
          (try Obs.with_span "child.b" (fun () -> failwith "boom")
           with Failure _ -> ());
          Obs.with_span "child.c" ignore);
      match Obs.trace_roots () with
      | [ root ] ->
          Alcotest.(check string) "root name" "root" (Obs.Span.name root);
          Alcotest.(check (list string))
            "children in order, raising span closed"
            [ "child.a"; "child.b"; "child.c" ]
            (List.map Obs.Span.name (Obs.Span.children root));
          List.iter
            (fun s ->
              if Obs.Span.elapsed_s s < 0. then Alcotest.fail "negative elapsed")
            (root :: Obs.Span.children root)
      | roots -> Alcotest.failf "expected 1 root, got %d" (List.length roots))

let unit_counter_from_many_domains () =
  (* Sharded adds from inside pool worker domains must all land: the merged
     value equals the number of parallel increments. *)
  let c = Obs.counter "test.multidomain" in
  let h = Obs.histogram "test.multidomain.h" in
  Obs.Counter.reset c;
  Obs.Histogram.reset h;
  let pool = Engine.Pool.create ~jobs:4 () in
  Fun.protect
    ~finally:(fun () -> Engine.Pool.shutdown pool)
    (fun () ->
      let n = 10_000 in
      Engine.Pool.run pool ~n (fun i ->
          Obs.Counter.incr c;
          Obs.Histogram.observe h (i land 7));
      Alcotest.(check int) "every increment counted" n (Obs.Counter.value c);
      Alcotest.(check int) "every observation counted" n (Obs.Histogram.count h))

let unit_engine_metrics_in_response () =
  (* End to end: an eval reports its own per-solver work in
     [Response.stats.metrics]. *)
  let db = Datasets.Polls.generate ~n_candidates:8 ~n_voters:10 ~seed:4 () in
  let q = Ppd.Parser.parse Datasets.Polls.query_two_label in
  Engine.with_engine Engine.Config.(default |> with_jobs 2) (fun engine ->
      let req = Engine.Request.make ~solver:(Hardq.Solver.Exact `Two_label) db q in
      let resp = Engine.eval engine req in
      let m = resp.Engine.Response.stats.Engine.Response.metrics in
      Alcotest.(check int) "one eval in the delta" 1 (Obs.count m "engine.evals");
      Alcotest.(check int)
        "solver calls attributed" resp.Engine.Response.stats.Engine.Response.solver_calls
        (Obs.count m "solver.two_label.calls");
      Alcotest.(check bool)
        "DP states counted" true
        (Obs.count m "solver.two_label.dp_states" > 0))

let suites =
  [
    ( "obs.metrics",
      [
        tc "counter gating, interning, reset" `Quick unit_counter_basics;
        tc "histogram bucket boundaries" `Quick unit_histogram_buckets;
        tc "registry rejects kind clashes" `Quick unit_registry_kind_clash;
        tc "snapshot, diff and JSON" `Quick unit_snapshot_diff_json;
      ] );
    ( "obs.spans",
      [ tc "span tree, exception safety" `Quick unit_spans_tree ] );
    ( "obs.domains",
      [
        tc "increments from 4 pool domains" `Quick unit_counter_from_many_domains;
        tc "engine folds metrics into the response" `Quick
          unit_engine_metrics_in_response;
      ] );
  ]

(* The serving subsystem: JSON and protocol codecs, the bounded
   admission queue, Query.to_string round-tripping, and end-to-end tests
   against an in-process server — bit-identity under concurrent clients,
   load shedding, deadlines, graceful drain, and SIGTERM on the real
   binary. *)

let tc = Alcotest.test_case

module Json = Server.Json
module Protocol = Server.Protocol

let check_float_eq what expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected exactly %.17g, got %.17g" what expected actual

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let unit_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.5;
      Json.Float (-1.25e-3);
      Json.String "";
      Json.String "plain";
      Json.String "esc \" \\ \n \t \r \b \012 done";
      Json.String "caf\xc3\xa9";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("l", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      if String.contains s '\n' then Alcotest.failf "not single-line: %s" s;
      match Json.of_string s with
      | Ok v' ->
          if not (Json.equal v v') then Alcotest.failf "round-trip broke %s" s
      | Error msg -> Alcotest.failf "re-parse of %s failed: %s" s msg)
    cases

let unit_json_float_precision () =
  (* The serving contract is bit-identical floats across the wire. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') ->
          if f <> f' && not (Float.is_nan f && Float.is_nan f') then
            Alcotest.failf "float %.17g re-parsed as %.17g" f f'
      | Ok (Json.Int i) ->
          if float_of_int i <> f then
            Alcotest.failf "float %.17g re-parsed as int %d" f i
      | Ok _ -> Alcotest.fail "float parsed as non-number"
      | Error msg -> Alcotest.failf "float %.17g: %s" f msg)
    [
      0.1 +. 0.2;
      1. /. 3.;
      0.99999999999999134;
      1e-300;
      1.7976931348623157e308;
      4.9406564584124654e-324;
      -0.0;
      3.14;
    ];
  (* Non-finite floats are not representable; they degrade to null. *)
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string)
    "inf -> null" "null"
    (Json.to_string (Json.Float Float.infinity))

let unit_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "expected a parse error for %s" s
      | Error msg ->
          if not (contains msg "offset") then
            Alcotest.failf "error carries no offset for %s: %s" s msg)
    [
      "";
      "{";
      "[1, 2";
      "\"unterminated";
      "{\"a\": }";
      "{\"a\": 1,}";
      "nul";
      "1 2";
      "{\"a\" 1}";
      "[1,]";
      (* numbers with a malformed fraction/exponent must be parse
         errors, not a Failure escaping of_string *)
      "1e";
      "2E+";
      "1.";
      "-";
      "-e5";
      "{\"x\":1e}";
      "[2E+]";
      (* unpaired surrogates *)
      "\"\\uD83D\"";
      "\"\\uDC00\"";
      "\"\\uD83D\\uD83D\"";
      "\"\\uD83Dxx\"";
      "\"\\uZZZZ\"";
    ]

let unit_json_unicode_escapes () =
  let expect s expected =
    match Json.of_string s with
    | Ok (Json.String got) ->
        if got <> expected then
          Alcotest.failf "%s decoded to %S, expected %S" s got expected
    | Ok _ -> Alcotest.failf "%s parsed as a non-string" s
    | Error msg -> Alcotest.failf "%s failed to parse: %s" s msg
  in
  expect "\"\\u0041\"" "A";
  expect "\"\\u00e9\"" "\xc3\xa9";
  expect "\"\\u20AC\"" "\xe2\x82\xac";
  (* a surrogate pair decodes to one 4-byte UTF-8 code point, not two
     3-byte CESU-8 halves *)
  expect "\"\\uD83D\\uDE00\"" "\xf0\x9f\x98\x80";
  expect "\"\\uD800\\uDC00\"" "\xf0\x90\x80\x80";
  (* decoded astral characters survive a print/re-parse round trip *)
  (match Json.of_string (Json.to_string (Json.String "\xf0\x9f\x98\x80")) with
  | Ok (Json.String s) when s = "\xf0\x9f\x98\x80" -> ()
  | _ -> Alcotest.fail "astral string did not round-trip");
  (* well-formed exponents still parse *)
  List.iter
    (fun (s, f) ->
      match Json.of_string s with
      | Ok (Json.Float got) when got = f -> ()
      | Ok j -> Alcotest.failf "%s parsed as %s" s (Json.to_string j)
      | Error msg -> Alcotest.failf "%s failed to parse: %s" s msg)
    [ ("1e5", 1e5); ("2E+3", 2e3); ("-0.5e-2", -0.005); ("10.25", 10.25) ]

let unit_json_accessors () =
  let j =
    Json.Obj [ ("i", Json.Int 3); ("f", Json.Float 0.5); ("s", Json.String "x") ]
  in
  Alcotest.(check (option int)) "int field" (Some 3)
    (Option.bind (Json.member "i" j) Json.to_int);
  Alcotest.(check (option int)) "missing" None
    (Option.bind (Json.member "zz" j) Json.to_int);
  (* ints coerce to floats, floats with integral value to ints *)
  Alcotest.(check (option (float 0.))) "int as float" (Some 3.)
    (Option.bind (Json.member "i" j) Json.to_float);
  Alcotest.(check (option int)) "integral float as int" (Some 2)
    (Json.to_int (Json.Float 2.));
  Alcotest.(check (option int)) "non-integral float is not an int" None
    (Json.to_int (Json.Float 2.5));
  Alcotest.(check bool) "obj equal ignores order" true
    (Json.equal
       (Json.Obj [ ("a", Json.Int 1); ("b", Json.Int 2) ])
       (Json.Obj [ ("b", Json.Int 2); ("a", Json.Int 1) ]))

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let sample_query = Ppd.Parser.parse Datasets.Polls.query_two_label

let unit_protocol_request_roundtrip () =
  let specs =
    [
      Protocol.dataset "polls";
      Protocol.dataset ~size:8 ~sessions:50 ~seed:7 "movielens";
    ]
  in
  let tasks =
    [
      Engine.Request.Boolean;
      Engine.Request.Count;
      Engine.Request.Top_k { k = 4; strategy = `Naive };
      Engine.Request.Top_k { k = 2; strategy = `Edges 3 };
    ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun task ->
          (* Solvers cross the wire by *name*; parameters re-parse to the
             name's defaults, so the codec round-trips exactly the solvers
             whose of_string/to_string round-trip (t_engine checks that
             for all of them). *)
          let e =
            Protocol.eval ~task
              ~solver:(Hardq.Solver.Approx (Hardq.Solver.Mis_full { n_per = 2000 }))
              ~budget:1.5 ~seed:9 ~timeout_ms:250. ~per_session:true spec
              sample_query
          in
          let req = { Protocol.id = Some (Json.Int 7); op = Protocol.Eval e } in
          match Protocol.request_of_json (Protocol.request_to_json req) with
          | Ok req' ->
              if req' <> req then
                Alcotest.failf "request round-trip broke: %s"
                  (Json.to_string (Protocol.request_to_json req))
          | Error e -> Alcotest.failf "request rejected: %s" e.Protocol.message)
        tasks)
    specs;
  (* ping/metrics, and ids of every JSON shape *)
  List.iter
    (fun op ->
      List.iter
        (fun id ->
          let req = { Protocol.id; op } in
          match Protocol.request_of_json (Protocol.request_to_json req) with
          | Ok req' when req' = req -> ()
          | Ok _ -> Alcotest.fail "op/id round-trip broke"
          | Error e -> Alcotest.failf "rejected: %s" e.Protocol.message)
        [ None; Some (Json.Int 1); Some (Json.String "req-1"); Some Json.Null ])
    [ Protocol.Ping; Protocol.Metrics ]

let sample_stats =
  {
    Protocol.sessions = 30;
    distinct = 12;
    cache_hits = 3;
    cache_misses = 9;
    solver_calls = 9;
    jobs = 2;
    compile_s = 1e-4;
    bound_s = 0.;
    solve_s = 0.2;
    total_s = 0.21;
    queue_s = 1e-5;
    server_s = 0.22;
    cache =
      Some
        {
          Protocol.answer_hits = 3;
          answer_misses = 9;
          sf_joins = 0;
          term_hits = 4;
          term_misses = 2;
          batch_id = 7;
          batch_size = 1;
        };
  }

let unit_protocol_reply_roundtrip () =
  let rows =
    [
      ([ Ppd.Value.Str "v1" ], 0.1 +. 0.2);
      ([ Ppd.Value.Str "v2"; Ppd.Value.Int 3 ], 1. /. 3.);
    ]
  in
  let bodies =
    [
      Protocol.Answer
        {
          answer = Protocol.Probability 0.99999999999999134;
          per_session = None;
          stats = sample_stats;
          anytime = None;
          shards = None;
        };
      Protocol.Answer
        {
          answer = Protocol.Expectation 12.75;
          per_session = Some rows;
          stats = sample_stats;
          anytime =
            Some
              {
                Protocol.any_status = Protocol.Timeout;
                any_rounds = 5;
                any_draws = 1024;
                any_ci_lo = 11.5;
                any_ci_hi = 13.25;
              };
          shards = None;
        };
      Protocol.Answer
        {
          answer = Protocol.Ranked rows;
          per_session = None;
          stats = sample_stats;
          anytime = None;
          shards =
            Some
              {
                Protocol.sh_count = 4;
                sh_answered = 3;
                sh_timed_out = 1;
                sh_errored = 0;
                sh_pruned = 2;
                sh_deep = 1;
                sh_exact = false;
              };
        };
      Protocol.Pong;
      Protocol.Metrics_snapshot (Json.Obj [ ("counters", Json.Obj []) ]);
      Protocol.Err (Protocol.error Protocol.Overloaded "queue full");
    ]
  in
  List.iter
    (fun result ->
      let reply = { Protocol.reply_id = Some (Json.Int 3); result } in
      match Protocol.reply_of_json (Protocol.reply_to_json reply) with
      | Ok reply' ->
          if reply' <> reply then
            Alcotest.failf "reply round-trip broke: %s"
              (Json.to_string (Protocol.reply_to_json reply))
      | Error msg -> Alcotest.failf "reply rejected: %s" msg)
    bodies

let unit_protocol_bad_requests () =
  let decode s =
    match Json.of_string s with
    | Ok j -> Protocol.request_of_json j
    | Error msg -> Alcotest.failf "test JSON invalid: %s" msg
  in
  let expect_code s code what =
    match decode s with
    | Ok _ -> Alcotest.failf "%s: expected a typed error" what
    | Error e ->
        if e.Protocol.code <> code then
          Alcotest.failf "%s: wrong code, message: %s" what e.Protocol.message;
        e.Protocol.message
  in
  ignore (expect_code "[]" Protocol.Bad_request "non-object");
  ignore (expect_code "{}" Protocol.Bad_request "missing op");
  ignore (expect_code "{\"op\":\"nope\"}" Protocol.Bad_request "unknown op");
  ignore
    (expect_code "{\"op\":\"eval\",\"dataset\":\"polls\"}" Protocol.Bad_request
       "missing query");
  (* bad solver name: message must enumerate the valid names *)
  let msg =
    expect_code
      "{\"op\":\"eval\",\"dataset\":\"polls\",\"query\":\"Q() :- P(_, _; x; \
       y).\",\"solver\":\"nope\"}"
      Protocol.Unknown_solver "bad solver"
  in
  List.iter
    (fun n ->
      if not (contains msg n) then
        Alcotest.failf "solver error omits %S: %s" n msg)
    Hardq.Solver.valid_names;
  (* query syntax error: typed, and localized with an offset *)
  let msg =
    expect_code
      "{\"op\":\"eval\",\"dataset\":\"polls\",\"query\":\"Q() :- P(_; x).\"}"
      Protocol.Query_parse_error "bad query"
  in
  if not (contains msg "offset") then
    Alcotest.failf "query error carries no offset: %s" msg

(* JSON surgery for the versioning tests. *)
let drop_field name = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> name) fields)
  | j -> j

let with_field name v = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> name) fields @ [ (name, v) ])
  | j -> j

let map_field name f = function
  | Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> if k = name then (k, f v) else (k, v)) fields)
  | j -> j

let unit_protocol_versioning () =
  let req = { Protocol.id = Some (Json.Int 1); op = Protocol.Ping } in
  let req_json = Protocol.request_to_json req in
  let reply = { Protocol.reply_id = Some (Json.Int 1); result = Protocol.Pong } in
  let reply_json = Protocol.reply_to_json reply in
  (* encoders stamp ["v"] on both directions *)
  List.iter
    (fun (what, j) ->
      match Json.member "v" j with
      | Some (Json.Int v) when v = Protocol.version -> ()
      | _ -> Alcotest.failf "%s does not carry \"v\": %s" what (Json.to_string j))
    [ ("request", req_json); ("reply", reply_json) ];
  (* a pre-versioning peer (no "v") stays wire-compatible *)
  (match Protocol.request_of_json (drop_field "v" req_json) with
  | Ok req' when req' = req -> ()
  | Ok _ -> Alcotest.fail "versionless request decoded differently"
  | Error e -> Alcotest.failf "versionless request rejected: %s" e.Protocol.message);
  (match Protocol.reply_of_json (drop_field "v" reply_json) with
  | Ok reply' when reply' = reply -> ()
  | Ok _ -> Alcotest.fail "versionless reply decoded differently"
  | Error msg -> Alcotest.failf "versionless reply rejected: %s" msg);
  (* a future version is refused, with a message naming both versions *)
  (match Protocol.request_of_json (with_field "v" (Json.Int 2) req_json) with
  | Ok _ -> Alcotest.fail "v2 request accepted"
  | Error e ->
      if e.Protocol.code <> Protocol.Bad_request then
        Alcotest.failf "v2 request: wrong code: %s" e.Protocol.message;
      if not (contains e.Protocol.message "2" && contains e.Protocol.message "1")
      then Alcotest.failf "version mismatch unnamed: %s" e.Protocol.message);
  (match Protocol.reply_of_json (with_field "v" (Json.Int 2) reply_json) with
  | Ok _ -> Alcotest.fail "v2 reply accepted"
  | Error _ -> ());
  (* and a non-integer "v" is malformed, not silently tolerated *)
  match Protocol.request_of_json (with_field "v" (Json.String "1") req_json) with
  | Ok _ -> Alcotest.fail "string \"v\" accepted"
  | Error _ -> ()

let unit_protocol_forward_compat () =
  (* unknown members are skipped on both directions — the rule that let
     the "cache" block (and "v" itself) land without a version bump *)
  let req =
    {
      Protocol.id = Some (Json.Int 2);
      op = Protocol.Eval (Protocol.eval (Protocol.dataset "polls") sample_query);
    }
  in
  let noisy =
    with_field "zz_future" (Json.Obj [ ("x", Json.Int 1) ])
      (Protocol.request_to_json req)
  in
  (match Protocol.request_of_json noisy with
  | Ok req' when req' = req -> ()
  | Ok _ -> Alcotest.fail "unknown request member changed the decode"
  | Error e -> Alcotest.failf "unknown request member rejected: %s" e.Protocol.message);
  let reply =
    {
      Protocol.reply_id = Some (Json.Int 2);
      result =
        Protocol.Answer
          {
            answer = Protocol.Probability 0.5;
            per_session = None;
            stats = sample_stats;
            anytime =
              Some
                {
                  Protocol.any_status = Protocol.Final;
                  any_rounds = 3;
                  any_draws = 448;
                  any_ci_lo = 0.4;
                  any_ci_hi = 0.6;
                };
            shards =
              Some
                {
                  Protocol.sh_count = 2;
                  sh_answered = 2;
                  sh_timed_out = 0;
                  sh_errored = 0;
                  sh_pruned = 1;
                  sh_deep = 1;
                  sh_exact = true;
                };
          };
    }
  in
  let j = Protocol.reply_to_json reply in
  (match Protocol.reply_of_json (with_field "zz_future" (Json.String "?") j) with
  | Ok reply' when reply' = reply -> ()
  | Ok _ -> Alcotest.fail "unknown reply member changed the decode"
  | Error msg -> Alcotest.failf "unknown reply member rejected: %s" msg);
  (* the "cache" stats block is additive: a pre-v1 server that omits it
     decodes to [cache = None]... *)
  (match Protocol.reply_of_json (map_field "stats" (drop_field "cache") j) with
  | Ok
      {
        Protocol.result =
          Protocol.Answer { stats = { Protocol.cache = None; _ }; _ };
        _;
      } ->
      ()
  | Ok { Protocol.result = Protocol.Answer _; _ } ->
      Alcotest.fail "stripped cache block still decoded as Some"
  | Ok _ -> Alcotest.fail "unexpected reply body"
  | Error msg -> Alcotest.failf "cacheless reply rejected: %s" msg);
  (* ...but a malformed block is a decode failure, not a silent None *)
  (match
     Protocol.reply_of_json
       (map_field "stats" (with_field "cache" (Json.Int 5)) j)
   with
  | Ok _ -> Alcotest.fail "malformed cache block decoded"
  | Error _ -> ());
  (* the "anytime" block follows the same additive contract: a reply
     from a pre-anytime server (no member) decodes to [anytime = None]... *)
  (match Protocol.reply_of_json (drop_field "anytime" j) with
  | Ok { Protocol.result = Protocol.Answer { anytime = None; _ }; _ } -> ()
  | Ok { Protocol.result = Protocol.Answer _; _ } ->
      Alcotest.fail "stripped anytime block still decoded as Some"
  | Ok _ -> Alcotest.fail "unexpected reply body"
  | Error msg -> Alcotest.failf "anytime-less reply rejected: %s" msg);
  (* ...and a malformed one is a decode failure *)
  match Protocol.reply_of_json (with_field "anytime" (Json.Int 5) j) with
  | Ok _ -> Alcotest.fail "malformed anytime block decoded"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Bqueue                                                              *)
(* ------------------------------------------------------------------ *)

let unit_bqueue_fifo_and_bound () =
  let q = Server.Bqueue.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Server.Bqueue.capacity q);
  Alcotest.(check bool) "push 1" true (Server.Bqueue.try_push q 1 = Server.Bqueue.Pushed);
  Alcotest.(check bool) "push 2" true (Server.Bqueue.try_push q 2 = Server.Bqueue.Pushed);
  Alcotest.(check bool) "push 3 sheds" true
    (Server.Bqueue.try_push q 3 = Server.Bqueue.Full);
  Alcotest.(check int) "length" 2 (Server.Bqueue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Server.Bqueue.pop q);
  Alcotest.(check bool) "push 4 after pop" true
    (Server.Bqueue.try_push q 4 = Server.Bqueue.Pushed);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Server.Bqueue.pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Server.Bqueue.pop q)

let unit_bqueue_close_drains () =
  let q = Server.Bqueue.create ~capacity:4 in
  ignore (Server.Bqueue.try_push q "a");
  ignore (Server.Bqueue.try_push q "b");
  Server.Bqueue.close q;
  Alcotest.(check bool) "push after close" true
    (Server.Bqueue.try_push q "c" = Server.Bqueue.Closed);
  (* close-then-join drain idiom: queued items still come out, then None *)
  Alcotest.(check (option string)) "drain a" (Some "a") (Server.Bqueue.pop q);
  Alcotest.(check (option string)) "drain b" (Some "b") (Server.Bqueue.pop q);
  Alcotest.(check (option string)) "then None" None (Server.Bqueue.pop q)

let unit_bqueue_pop_blocks_until_push () =
  let q = Server.Bqueue.create ~capacity:1 in
  let got = ref None in
  let t = Thread.create (fun () -> got := Server.Bqueue.pop q) () in
  Thread.delay 0.02;
  ignore (Server.Bqueue.try_push q 99);
  Thread.join t;
  Alcotest.(check (option int)) "blocked pop woke" (Some 99) !got

(* ------------------------------------------------------------------ *)
(* Query.to_string round-trip                                          *)
(* ------------------------------------------------------------------ *)

let unit_query_to_string_showcase () =
  List.iter
    (fun text ->
      let q = Ppd.Parser.parse text in
      let q' = Ppd.Parser.parse (Ppd.Query.to_string q) in
      if q <> q' then
        Alcotest.failf "showcase query does not round-trip: %s" text)
    [
      Datasets.Polls.query_two_label;
      Datasets.Movielens.query_fig14;
      Datasets.Crowdrank.query_fig15;
      "Q() :- P(_, _; x; y), C(x, \"D\", _, _, e, _), C(y, \"R\", _, _, e, _).";
      "Q() :- P(_; x; y), M(x, _, year1, g), year1 >= 1990, M(y, _, year2, g), \
       year2 < 1990.";
    ]

(* Random supported queries as ASTs. Variables are lowercase; string
   constants are arbitrary-case (to_string must quote them so that
   [Capitalized] does not come back as a different constant and
   [lowercase] does not come back as a variable). *)
let query_gen =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z"; "w"; "s1" ] in
  let str_const =
    oneofl [ "D"; "R"; "red"; "Blue"; "a b"; "1990s"; "x'"; "" ]
  in
  let term =
    frequency
      [
        (4, map (fun v -> Ppd.Query.Var v) var);
        (2, return Ppd.Query.Wildcard);
        (2, map (fun i -> Ppd.Query.Const (Ppd.Value.Int i)) (int_range (-50) 5000));
        (2, map (fun s -> Ppd.Query.Const (Ppd.Value.Str s)) str_const);
      ]
  in
  let pref =
    let* rel = oneofl [ "P"; "Pref" ] in
    let* session = list_size (int_range 1 2) term in
    let* left = term in
    let* right = term in
    return (Ppd.Query.Pref { rel; session; left; right })
  in
  let rel_atom =
    let* rel = oneofl [ "M"; "C"; "D2" ] in
    let* terms = list_size (int_range 1 4) term in
    return (Ppd.Query.Rel { rel; terms })
  in
  let cmp =
    let* v = var in
    let* op =
      oneofl [ Ppd.Value.Eq; Ppd.Value.Neq; Ppd.Value.Lt; Ppd.Value.Le; Ppd.Value.Gt; Ppd.Value.Ge ]
    in
    let* i = int_range (-10) 2020 in
    return
      (Ppd.Query.Cmp
         { lhs = Ppd.Query.Var v; op; rhs = Ppd.Query.Const (Ppd.Value.Int i) })
  in
  let* prefs = list_size (int_range 1 2) pref in
  let* rels = list_size (int_range 0 2) rel_atom in
  let* cmps = list_size (int_range 0 1) cmp in
  let body = prefs @ rels @ cmps in
  let body_vars =
    List.concat_map
      (fun atom ->
        let terms =
          match atom with
          | Ppd.Query.Pref { session; left; right; _ } -> left :: right :: session
          | Ppd.Query.Rel { terms; _ } -> terms
          | Ppd.Query.Cmp { lhs; rhs; _ } -> [ lhs; rhs ]
        in
        List.filter_map
          (function Ppd.Query.Var v -> Some v | _ -> None)
          terms)
      body
  in
  let* head =
    match List.sort_uniq compare body_vars with
    | [] -> return []
    | vs ->
        let* n = int_range 0 (List.length vs) in
        return (List.filteri (fun i _ -> i < n) vs)
  in
  return (Ppd.Query.make ~name:"Q" ~head body)

let prop_query_to_string_roundtrip =
  Helpers.qtest ~count:300 "parse (to_string q) = q"
    (QCheck.make ~print:Ppd.Query.to_string query_gen)
    (fun q ->
      match Ppd.Parser.parse_result (Ppd.Query.to_string q) with
      | Ok q' ->
          q' = q
          || QCheck.Test.fail_reportf "reparsed differently: %s"
               (Ppd.Query.to_string q')
      | Error msg ->
          QCheck.Test.fail_reportf "emitted unparseable text %S: %s"
            (Ppd.Query.to_string q) msg)

(* ------------------------------------------------------------------ *)
(* End-to-end: in-process server                                       *)
(* ------------------------------------------------------------------ *)

let temp_socket () =
  let path = Filename.temp_file "hardq_test" ".sock" in
  Sys.remove path;
  path

let with_server config f =
  let server = Server.start config in
  Fun.protect
    ~finally:(fun () -> if not (Server.draining server) then Server.drain server)
    (fun () -> f server)

(* The spec the identity tests serve; small enough that eight clients
   times three tasks stay well under a second. *)
let fast_spec = Protocol.dataset ~size:6 ~sessions:30 ~seed:7 "polls"

(* Buckets the batch scheduler flushed early because no other
   connection was open (the registry is process-wide). *)
let c_batch_direct = Obs.counter "server.batch.direct"

(* A spec slow enough (hundreds of ms per uncached eval) that load
   shedding, deadlines and drain have an in-flight request to observe. *)
let slow_spec = Protocol.dataset ~size:10 ~sessions:2500 ~seed:7 "polls"

let reference_response spec task ~per_session:_ =
  let registry = Server.Registry.create () in
  let db =
    match Server.Registry.find registry spec with
    | Ok db -> db
    | Error e -> Alcotest.failf "reference dataset: %s" e.Protocol.message
  in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      Engine.eval engine (Engine.Request.make ~task db sample_query))

let unit_server_concurrent_bit_identity () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  let ref_bool = reference_response fast_spec Engine.Request.Boolean ~per_session:true in
  let ref_count = reference_response fast_spec Engine.Request.Count ~per_session:false in
  let ref_topk =
    reference_response fast_spec
      (Engine.Request.Top_k { k = 5; strategy = `Edges 1 })
      ~per_session:false
  in
  let ref_rows =
    List.map
      (fun (s, p) -> (Protocol.key_of_session s, p))
      ref_bool.Engine.Response.per_session
  in
  let ref_ranked =
    List.map
      (fun (s, p) -> (Protocol.key_of_session s, p))
      (Engine.Response.ranked ref_topk)
  in
  with_server config @@ fun server ->
  let n_clients = 8 in
  let failures = Server.Bqueue.create ~capacity:(n_clients * 4) in
  let fail fmt = Printf.ksprintf (fun m -> ignore (Server.Bqueue.try_push failures m)) fmt in
  let run_client i =
    let client = Server.Client.connect ~retries:40 (Server.address server) in
    Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
    (* Boolean with per-session marginals *)
    (match
       Server.Client.eval client
         (Protocol.eval ~per_session:true fast_spec sample_query)
     with
    | Ok (Protocol.Answer { answer = Protocol.Probability p; per_session; _ }) ->
        if p <> Engine.Response.answer_float ref_bool then
          fail "client %d: boolean %.17g <> %.17g" i p
            (Engine.Response.answer_float ref_bool);
        (match per_session with
        | Some rows when rows = ref_rows -> ()
        | Some _ -> fail "client %d: per-session rows differ" i
        | None -> fail "client %d: per-session rows missing" i)
    | Ok _ -> fail "client %d: unexpected boolean reply" i
    | Error msg -> fail "client %d: boolean failed: %s" i msg);
    (* Count *)
    (match
       Server.Client.eval client
         (Protocol.eval ~task:Engine.Request.Count fast_spec sample_query)
     with
    | Ok (Protocol.Answer { answer = Protocol.Expectation e; _ }) ->
        if e <> Engine.Response.answer_float ref_count then
          fail "client %d: count %.17g <> %.17g" i e
            (Engine.Response.answer_float ref_count)
    | Ok _ -> fail "client %d: unexpected count reply" i
    | Error msg -> fail "client %d: count failed: %s" i msg);
    (* Most-probable-session *)
    match
      Server.Client.eval client
        (Protocol.eval
           ~task:(Engine.Request.Top_k { k = 5; strategy = `Edges 1 })
           fast_spec sample_query)
    with
    | Ok (Protocol.Answer { answer = Protocol.Ranked rows; _ }) ->
        if rows <> ref_ranked then fail "client %d: ranking differs" i
    | Ok _ -> fail "client %d: unexpected top-k reply" i
    | Error msg -> fail "client %d: top-k failed: %s" i msg
  in
  let threads = List.init n_clients (fun i -> Thread.create run_client i) in
  List.iter Thread.join threads;
  Server.Bqueue.close failures;
  match Server.Bqueue.pop failures with
  | None -> ()
  | Some first -> Alcotest.fail first

let unit_server_sheds_when_overloaded () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    {
      (Server.default_config address) with
      Server.queue_capacity = 1;
      workers = 1;
      preload = [ slow_spec ];
    }
  in
  with_server config @@ fun server ->
  (* Occupy the single worker with a slow eval... *)
  let slow_result = ref (Error "never ran") in
  let slow_thread =
    Thread.create
      (fun () ->
        let client = Server.Client.connect ~retries:40 (Server.address server) in
        Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
        slow_result :=
          Server.Client.eval client (Protocol.eval slow_spec sample_query))
      ()
  in
  Thread.delay 0.1;
  (* ...then flood: with the worker busy and capacity 1, at most one of
     these can sit in the queue; the rest must shed with the typed
     [overloaded] error, not block and not kill the server. *)
  let outcomes = Array.make 6 `Other in
  let flood =
    List.init (Array.length outcomes) (fun i ->
        Thread.create
          (fun () ->
            let client =
              Server.Client.connect ~retries:40 (Server.address server)
            in
            Fun.protect ~finally:(fun () -> Server.Client.close client)
            @@ fun () ->
            match
              Server.Client.eval client (Protocol.eval slow_spec sample_query)
            with
            | Ok (Protocol.Err { code = Protocol.Overloaded; _ }) ->
                outcomes.(i) <- `Shed
            | Ok (Protocol.Answer _) -> outcomes.(i) <- `Answered
            | _ -> ())
          ())
  in
  List.iter Thread.join flood;
  Thread.join slow_thread;
  let shed =
    Array.fold_left (fun n o -> if o = `Shed then n + 1 else n) 0 outcomes
  in
  if shed = 0 then Alcotest.fail "no request was shed with overloaded";
  (* the slow request itself was never sacrificed... *)
  (match !slow_result with
  | Ok (Protocol.Answer _) -> ()
  | Ok (Protocol.Err e) ->
      Alcotest.failf "slow request errored: %s" e.Protocol.message
  | Ok _ -> Alcotest.fail "slow request: unexpected reply"
  | Error msg -> Alcotest.failf "slow request failed: %s" msg);
  (* ...and the server survived the burst. *)
  let client = Server.Client.connect ~retries:10 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  Alcotest.(check bool) "server still answers" true (Server.Client.ping client)

let unit_server_deadline_exceeded () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ slow_spec ] }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  match
    Server.Client.eval client
      (Protocol.eval ~timeout_ms:1. slow_spec sample_query)
  with
  | Ok (Protocol.Err { code = Protocol.Deadline_exceeded; _ }) -> ()
  | Ok (Protocol.Err e) ->
      Alcotest.failf "wrong error code: %s" e.Protocol.message
  | Ok (Protocol.Answer _) ->
      Alcotest.fail "a 1 ms deadline cannot outrun a 100+ ms eval"
  | Ok _ -> Alcotest.fail "unexpected reply"
  | Error msg -> Alcotest.failf "transport error: %s" msg

(* A request whose DP passes the solver's state cap is a budget error,
   not an internal one: the reply is a typed [budget_exhausted] naming
   the table and the cap, and the server answers the next request. *)
let unit_server_state_cap_is_budget () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let saved = !Hardq.Two_label.max_states in
  (match
     Fun.protect
       ~finally:(fun () -> Hardq.Two_label.max_states := saved)
       (fun () ->
         Hardq.Two_label.max_states := 3;
         Server.Client.eval client (Protocol.eval fast_spec sample_query))
   with
  | Ok (Protocol.Err { code = Protocol.Budget_exhausted; message }) ->
      Alcotest.(check bool)
        "message names the table" true (contains message "Two_label");
      Alcotest.(check bool) "message names the cap" true (contains message "3")
  | Ok (Protocol.Err e) ->
      Alcotest.failf "wrong error code %s: %s"
        (Protocol.error_code_to_string e.Protocol.code)
        e.Protocol.message
  | Ok _ -> Alcotest.fail "a 3-state cap cannot fit the two-label DP"
  | Error msg -> Alcotest.failf "transport error: %s" msg);
  match Server.Client.eval client (Protocol.eval fast_spec sample_query) with
  | Ok (Protocol.Answer _) -> ()
  | Ok _ -> Alcotest.fail "the server must answer once the cap is back"
  | Error msg -> Alcotest.failf "transport error: %s" msg

(* A "query" compiles when the server builds its engine request, before
   the engine: a CQ outside the supported fragment (a head variable) must
   still come back as the typed [unsupported] reply — not as [internal]
   — and the connection must keep answering. *)
let unit_server_unsupported_query_is_typed () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let head_var =
    Ppd.Parser.parse
      "Q(l) :- P(_, _; l; r), C(l, p, \"M\", _, _, _), C(r, p, \"F\", _, _, _)."
  in
  (match Server.Client.eval client (Protocol.eval fast_spec head_var) with
  | Ok (Protocol.Err { code = Protocol.Unsupported; message }) ->
      Alcotest.(check bool) "message names head variables" true
        (contains message "head variables")
  | Ok (Protocol.Err e) ->
      Alcotest.failf "wrong error code %s: %s"
        (Protocol.error_code_to_string e.Protocol.code)
        e.Protocol.message
  | Ok _ -> Alcotest.fail "a head-variable query was answered"
  | Error msg -> Alcotest.failf "transport error: %s" msg);
  match Server.Client.eval client (Protocol.eval fast_spec sample_query) with
  | Ok (Protocol.Answer _) -> ()
  | Ok _ -> Alcotest.fail "the next request on the connection must be answered"
  | Error msg -> Alcotest.failf "transport error: %s" msg

(* The paper's Q2 with bare constants: "query" and "q" read terms with
   the same rules, so both members mean the same query and the expected
   session counts are the same bytes. *)
let unit_server_query_and_q_agree () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let text = "Q() :- P(_, _; x; y), C(x, D, _, _, e, _), C(y, R, _, _, e, _)." in
  let request =
    drop_field "query"
      (Protocol.request_to_json
         {
           Protocol.id = None;
           op =
             Protocol.Eval
               (Protocol.eval ~task:Engine.Request.Count fast_spec sample_query);
         })
  in
  let answer member =
    match Server.Client.rpc_json client (with_field member (Json.String text) request) with
    | Ok reply -> (
        match Json.member "answer" reply with
        | Some a -> Json.to_string a
        | None -> Alcotest.failf "%s: no answer in %s" member (Json.to_string reply))
    | Error msg -> Alcotest.failf "%s: transport error: %s" member msg
  in
  Alcotest.(check string) "same answer bytes" (answer "query") (answer "q")

(* [hardq query] is a local client of the server's request path: the
   same spec and text give the same dataset and the same answer. Size
   and the default session count of crowdrank are where the CLI's own
   dataset builder used to differ from the registry's. *)
let unit_server_cli_agrees () =
  let cli = Helpers.binary "hardq_cli.exe" in
  if not (Sys.file_exists cli) then Alcotest.failf "binary not found at %s" cli;
  let text =
    "count Q() :- P(w; m1; m2), M(m1, \"Thriller\", _, _, _), M(m2, \
     \"Comedy\", _, _, _)."
  in
  let address = Protocol.Local (temp_socket ()) in
  with_server (Server.default_config address) @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  List.iter
    (fun size ->
      let spec = Protocol.dataset ~size ~sessions:50 ~seed:42 "crowdrank" in
      let served =
        match Result.map (Server.Client.eval client) (Protocol.eval_lang spec text) with
        | Ok (Ok (Protocol.Answer { answer = Protocol.Expectation v; _ })) -> v
        | _ -> Alcotest.failf "size %d: the server gave no expectation" size
      in
      let out = Filename.temp_file "hardq_test_cli" ".out" in
      Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
      let code =
        Sys.command
          (String.concat " "
             (List.map Filename.quote
                [ cli; "query"; "--dataset"; "crowdrank"; "--size"; string_of_int size;
                  "--sessions"; "50"; "--seed"; "42"; text ])
          ^ " >" ^ Filename.quote out)
      in
      Alcotest.(check int) "exit status" 0 code;
      let printed =
        List.find_opt
          (String.starts_with ~prefix:"E[count(Q)]")
          (In_channel.with_open_text out In_channel.input_lines)
      in
      Alcotest.(check (option string))
        (Printf.sprintf "size %d" size)
        (Some (Printf.sprintf "E[count(Q)]  = %.6f" served))
        printed)
    [ 10; 30 ]

let unit_server_drain_completes_inflight () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ slow_spec ] }
  in
  let server = Server.start config in
  let inflight = ref (Error "never ran") in
  let t =
    Thread.create
      (fun () ->
        let client = Server.Client.connect ~retries:40 (Server.address server) in
        Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
        inflight :=
          Server.Client.eval client (Protocol.eval slow_spec sample_query))
      ()
  in
  Thread.delay 0.1;
  (* Drain while the request is in flight: it must still be answered. *)
  Server.drain server;
  Thread.join t;
  (match !inflight with
  | Ok (Protocol.Answer _) -> ()
  | Ok (Protocol.Err e) ->
      Alcotest.failf "in-flight request got %s: %s"
        (Protocol.error_code_to_string e.Protocol.code)
        e.Protocol.message
  | Ok _ -> Alcotest.fail "in-flight request: unexpected reply"
  | Error msg -> Alcotest.failf "in-flight request lost: %s" msg);
  (* The drained server accepts nothing new. *)
  match Server.Client.connect (Server.address server) with
  | client ->
      Server.Client.close client;
      Alcotest.fail "drained server accepted a connection"
  | exception Unix.Unix_error _ -> ()

(* Six concurrent identical requests under a generous gather window must
   coalesce: the scheduler groups same-shape requests into one engine
   batch, and single-flight dedup solves the shared sub-problems exactly
   once for the whole burst. *)
let unit_server_batching_single_flight () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    {
      (Server.default_config address) with
      Server.preload = [ fast_spec ];
      batch_window_ms = 250.;
      batch_max = 8;
    }
  in
  with_server config @@ fun server ->
  let n = 6 in
  let replies = Array.make n (Error "never ran") in
  let clients =
    Array.init n (fun _ -> Server.Client.connect ~retries:40 (Server.address server))
  in
  Fun.protect ~finally:(fun () -> Array.iter Server.Client.close clients)
  @@ fun () ->
  (* A pong proves the server registered the connection, so the first
     request of the burst already sees its batch partners' connections
     open and the window applies. *)
  Array.iter
    (fun client ->
      Alcotest.(check bool) "connection registered" true (Server.Client.ping client))
    clients;
  let threads =
    Array.mapi
      (fun i client ->
        Thread.create
          (fun () ->
            replies.(i) <-
              Server.Client.eval client (Protocol.eval fast_spec sample_query))
          ())
      clients
  in
  Array.iter Thread.join threads;
  let answers =
    Array.map
      (function
        | Ok (Protocol.Answer { answer = Protocol.Probability p; stats; _ }) ->
            (p, stats)
        | Ok (Protocol.Err e) -> Alcotest.failf "errored: %s" e.Protocol.message
        | Ok _ -> Alcotest.fail "unexpected reply"
        | Error msg -> Alcotest.failf "transport error: %s" msg)
      replies
  in
  (* batching must be answer-invisible: all replies bit-identical *)
  let p0, s0 = answers.(0) in
  Array.iter (fun (p, _) -> check_float_eq "batched answer" p0 p) answers;
  let caches =
    Array.map
      (fun (_, s) ->
        match s.Protocol.cache with
        | Some c -> c
        | None -> Alcotest.fail "reply lacks the cache stats block")
      answers
  in
  (* single-flight across the burst: one request's worth of distinct
     sub-problems was solved in total; every other occurrence was an
     answer-tier hit or an in-flight join *)
  let total_misses =
    Array.fold_left (fun acc c -> acc + c.Protocol.answer_misses) 0 caches
  in
  Alcotest.(check int) "sub-answers solved exactly once" s0.Protocol.distinct
    total_misses;
  (* the reported batch sizes are consistent with the replies naming
     each batch, and the window actually gathered a real batch *)
  Array.iter
    (fun c ->
      let carried =
        Array.fold_left
          (fun k c' -> if c'.Protocol.batch_id = c.Protocol.batch_id then k + 1 else k)
          0 caches
      in
      if c.Protocol.batch_size <> carried then
        Alcotest.failf "batch %d reports size %d but carried %d replies"
          c.Protocol.batch_id c.Protocol.batch_size carried)
    caches;
  if not (Array.exists (fun c -> c.Protocol.batch_size >= 2) caches) then
    Alcotest.fail "no batch gathered more than one request"

(* The gather window must never starve a deadline: a request whose
   deadline falls inside a pathological 30 s window is flushed early
   (the scheduler caps every bucket's flush point by the tightest
   member's slack) and answered, not timed out. A second, idle
   connection stays open throughout, so a batch partner could still
   arrive and the window — not the lone-connection flush — applies. *)
let unit_server_batch_starvation_bound () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    {
      (Server.default_config address) with
      Server.preload = [ fast_spec ];
      batch_window_ms = 30_000.;
      batch_max = 64;
    }
  in
  with_server config @@ fun server ->
  let idle = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close idle) @@ fun () ->
  Alcotest.(check bool) "idle connection registered" true (Server.Client.ping idle);
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let direct0 = Obs.Counter.value c_batch_direct in
  let t0 = Unix.gettimeofday () in
  (match
     Server.Client.eval client
       (Protocol.eval ~timeout_ms:2000. fast_spec sample_query)
   with
  | Ok (Protocol.Answer _) ->
      let elapsed = Unix.gettimeofday () -. t0 in
      if elapsed > 1.5 then
        Alcotest.failf
          "answered, but a 2 s deadline sat %.2f s behind a 30 s gather window"
          elapsed
  | Ok (Protocol.Err e) ->
      Alcotest.failf "starved by the gather window: %s" e.Protocol.message
  | Ok _ -> Alcotest.fail "unexpected reply"
  | Error msg -> Alcotest.failf "transport error: %s" msg);
  Alcotest.(check int) "the slack cap flushed, not the lone-connection rule" direct0
    (Obs.Counter.value c_batch_direct)

(* The batch size a reply reports in its cache stats block. *)
let reply_batch_size = function
  | Ok (Protocol.Answer { stats; _ }) -> (
      match stats.Protocol.cache with
      | Some c -> c.Protocol.batch_size
      | None -> Alcotest.fail "reply lacks the cache stats block")
  | Ok (Protocol.Err e) -> Alcotest.failf "errored: %s" e.Protocol.message
  | Ok _ -> Alcotest.fail "unexpected reply"
  | Error msg -> Alcotest.failf "transport error: %s" msg

(* No batch partner can arrive while only one connection is open, so a
   lone connection's request skips even a 30 s gather window (no
   deadline caps it). With a second connection open the window holds the
   request; closing that connection flushes it at once. *)
let unit_server_lone_connection_skips_window () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    {
      (Server.default_config address) with
      Server.preload = [ fast_spec ];
      batch_window_ms = 30_000.;
      batch_max = 64;
    }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let direct0 = Obs.Counter.value c_batch_direct in
  let t0 = Unix.gettimeofday () in
  let reply = Server.Client.eval client (Protocol.eval fast_spec sample_query) in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "a lone request is its own batch" 1 (reply_batch_size reply);
  if elapsed > 1.5 then
    Alcotest.failf "a lone connection waited %.2f s for batch partners" elapsed;
  Alcotest.(check int) "counted as a direct flush" (direct0 + 1)
    (Obs.Counter.value c_batch_direct);
  (* A second connection opens: the window applies again. *)
  let other = Server.Client.connect ~retries:40 (Server.address server) in
  Alcotest.(check bool) "second connection registered" true (Server.Client.ping other);
  let reply = Atomic.make None in
  let th =
    Thread.create
      (fun () ->
        let r = Server.Client.eval client (Protocol.eval fast_spec sample_query) in
        Atomic.set reply (Some (r, Unix.gettimeofday ())))
      ()
  in
  Thread.delay 0.3;
  let early = Atomic.get reply <> None in
  let t_close = Unix.gettimeofday () in
  Server.Client.close other;
  Thread.join th;
  if early then
    Alcotest.fail "answered within 0.3 s while another connection could batch";
  match Atomic.get reply with
  | None -> Alcotest.fail "no reply"
  | Some (r, t_reply) ->
      Alcotest.(check int) "flushed alone on disconnect" 1 (reply_batch_size r);
      if t_reply -. t_close > 1.5 then
        Alcotest.failf "reply came %.2f s after the other connection closed"
          (t_reply -. t_close);
      Alcotest.(check int) "the disconnect flush is counted" (direct0 + 2)
        (Obs.Counter.value c_batch_direct)

(* ------------------------------------------------------------------ *)
(* End-to-end: the real binary under SIGTERM                           *)
(* ------------------------------------------------------------------ *)

let server_binary = Helpers.binary "hardq_server.exe"

let unit_server_binary_sigterm () =
  if not (Sys.file_exists server_binary) then
    Alcotest.failf "server binary not found at %s (cwd %s)" server_binary
      (Sys.getcwd ());
  let socket = temp_socket () in
  let metrics = Filename.temp_file "hardq_test_metrics" ".json" in
  let pid =
    Unix.create_process server_binary
      [|
        server_binary;
        "--listen";
        socket;
        "--metrics-json";
        metrics;
        "--quiet";
        "--preload";
        "polls";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try Sys.remove metrics with Sys_error _ -> ())
    (fun () ->
      let address = Protocol.Local socket in
      let client = Server.Client.connect ~retries:100 address in
      Alcotest.(check bool) "binary answers ping" true (Server.Client.ping client);
      Server.Client.close client;
      (* SIGTERM with a request in flight: the drain must answer it,
         flush metrics and exit 0. *)
      let inflight = ref (Error "never ran") in
      let t =
        Thread.create
          (fun () ->
            let client = Server.Client.connect ~retries:40 address in
            Fun.protect ~finally:(fun () -> Server.Client.close client)
            @@ fun () ->
            inflight :=
              Server.Client.eval client
                (Protocol.eval
                   (Protocol.dataset ~size:10 ~sessions:2000 ~seed:3 "polls")
                   sample_query))
          ()
      in
      Thread.delay 0.3;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      (match status with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
      | Unix.WSIGNALED n -> Alcotest.failf "server killed by signal %d" n
      | Unix.WSTOPPED n -> Alcotest.failf "server stopped by signal %d" n);
      Thread.join t;
      (match !inflight with
      | Ok (Protocol.Answer _) -> ()
      | Ok (Protocol.Err e) ->
          Alcotest.failf "in-flight request during SIGTERM got %s"
            e.Protocol.message
      | Ok _ -> Alcotest.fail "in-flight request: unexpected reply"
      | Error msg ->
          Alcotest.failf "in-flight request lost during SIGTERM: %s" msg);
      (* the drain flushed a non-empty, well-formed metrics snapshot *)
      let ic = open_in metrics in
      let len = in_channel_length ic in
      let contents = really_input_string ic len in
      close_in ic;
      if String.trim contents = "" then Alcotest.fail "metrics snapshot empty";
      if not (contains contents "server.requests") then
        Alcotest.failf "metrics snapshot lacks server counters: %s" contents)

let unit_server_bounded_request_line () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.max_request_bytes = 512 }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  (* An overlong request line (far beyond max_request_bytes) must come
     back as a typed bad_request... *)
  let big = Json.Obj [ ("op", Json.String (String.make 4096 'x')) ] in
  (match Server.Client.rpc_json client big with
  | Ok reply -> (
      match Json.member "error" reply with
      | Some err -> (
          match Option.bind (Json.member "code" err) Json.to_string_opt with
          | Some "bad_request" -> ()
          | _ -> Alcotest.failf "wrong error: %s" (Json.to_string reply))
      | None -> Alcotest.failf "overlong line answered: %s" (Json.to_string reply))
  | Error msg -> Alcotest.failf "overlong line dropped the connection: %s" msg);
  (* ...and the connection must stay usable after the discard. *)
  Alcotest.(check bool) "connection survives overlong line" true
    (Server.Client.ping client)

(* A client that pipelines a request and then shuts down its write side
   makes the server's reader see EOF while the job is still queued; the
   reply must still be delivered on the (still-open) read side rather
   than the socket being closed out from under the worker. *)
let unit_server_half_close_still_replies () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let path =
    match Server.address server with
    | Protocol.Local p -> p
    | Protocol.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec connect tries =
        try Unix.connect fd (Unix.ADDR_UNIX path)
        with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
          when tries > 0 ->
          Thread.delay 0.05;
          connect (tries - 1)
      in
      connect 40;
      let line =
        Json.to_string
          (Protocol.request_to_json
             {
               Protocol.id = Some (Json.Int 1);
               op = Protocol.Eval (Protocol.eval fast_spec sample_query);
             })
        ^ "\n"
      in
      let off = ref 0 in
      while !off < String.length line do
        off := !off + Unix.write_substring fd line !off (String.length line - !off)
      done;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let buf = Bytes.create 65536 in
      let acc = Buffer.create 256 in
      let rec read_reply () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes acc buf 0 n;
            if not (String.contains (Buffer.contents acc) '\n') then
              read_reply ()
      in
      read_reply ();
      let reply = String.trim (Buffer.contents acc) in
      if reply = "" then Alcotest.fail "half-closed connection got no reply";
      match Json.of_string reply with
      | Error msg -> Alcotest.failf "unparseable reply %S: %s" reply msg
      | Ok j -> (
          match Protocol.reply_of_json j with
          | Ok { Protocol.result = Protocol.Answer _; _ } -> ()
          | Ok { Protocol.result = Protocol.Err e; _ } ->
              Alcotest.failf "half-closed request errored: %s" e.Protocol.message
          | Ok _ -> Alcotest.fail "unexpected reply body"
          | Error msg -> Alcotest.failf "undecodable reply: %s" msg))


(* Count flags are checked when they are parsed: a bad value is a usage
   error (exit 124) naming the flag, never an uncaught exception at
   startup or a silently accepted value. *)
let unit_binaries_reject_bad_counts () =
  List.iter
    (fun (flag, arg) ->
      Helpers.usage_error ~flag server_binary [ "--listen"; temp_socket (); arg ])
    [
      ("--queue", "--queue=0");
      ("--workers", "--workers=0");
      ("--cache", "--cache=-1");
      ("--term-cache", "--term-cache=-5");
      ("--jobs", "--jobs=-3");
    ];
  Helpers.usage_error ~flag:"--jobs"
    (Helpers.binary "hardq_cli.exe")
    [ "eval"; "--jobs=-3" ]

(* ------------------------------------------------------------------ *)
(* Streaming (anytime SLO) over raw sockets                            *)
(* ------------------------------------------------------------------ *)

(* Progress frames are NDJSON lines without an ["ok"] member, so
   [Server.Client] (one reply line per request) cannot read them; these
   tests speak the wire directly. *)
let raw_connect server =
  let path =
    match Server.address server with
    | Protocol.Local p -> p
    | Protocol.Tcp _ -> Alcotest.fail "expected a unix socket"
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec connect tries =
    try Unix.connect fd (Unix.ADDR_UNIX path)
    with Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when tries > 0 ->
      Thread.delay 0.05;
      connect (tries - 1)
  in
  connect 40;
  fd

let raw_send fd (req : Protocol.request) =
  let line = Json.to_string (Protocol.request_to_json req) ^ "\n" in
  let off = ref 0 in
  while !off < String.length line do
    off := !off + Unix.write_substring fd line !off (String.length line - !off)
  done

type raw_reader = { rfd : Unix.file_descr; racc : Buffer.t; rbuf : Bytes.t }

let raw_reader fd = { rfd = fd; racc = Buffer.create 4096; rbuf = Bytes.create 65536 }

(* One NDJSON line, blocking; [None] at EOF. *)
let rec raw_line r =
  let s = Buffer.contents r.racc in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear r.racc;
      Buffer.add_string r.racc (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
  | None -> (
      match Unix.read r.rfd r.rbuf 0 (Bytes.length r.rbuf) with
      | 0 -> if s = "" then None else (Buffer.clear r.racc; Some s)
      | n ->
          Buffer.add_subbytes r.racc r.rbuf 0 n;
          raw_line r)

let sampling_solver = Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 1 })

let streaming_eval ?target_ci ?deadline_ms () =
  Protocol.eval ~solver:sampling_solver ?target_ci ?deadline_ms ~stream:true
    fast_spec sample_query

let decode_json line =
  match Json.of_string line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparseable line %S: %s" line msg

(* A terminal reply line (as opposed to a progress frame) carries the
   ["ok"] member. *)
let is_reply j = Json.member "ok" j <> None

let id_of j =
  match Json.member "id" j with
  | Some (Json.Int i) -> i
  | _ -> Alcotest.failf "line without an integer id: %s" (Json.to_string j)

(* Two pipelined streaming requests per connection, two connections at
   once: every progress frame and terminal reply must reach exactly the
   client that asked, with each id's frames strictly before its reply. *)
let unit_server_streaming_pipelined_routing () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let per_conn = 2 and n_conns = 2 in
  let results = Array.make n_conns [] in
  let errors = Server.Bqueue.create ~capacity:8 in
  let fail fmt =
    Printf.ksprintf (fun m -> ignore (Server.Bqueue.try_push errors m)) fmt
  in
  let run_conn c =
    let fd = raw_connect server in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let ids = List.init per_conn (fun k -> (10 * (c + 1)) + k) in
        List.iter
          (fun id ->
            raw_send fd
              {
                Protocol.id = Some (Json.Int id);
                op = Protocol.Eval (streaming_eval ~target_ci:0.1 ());
              })
          ids;
        let r = raw_reader fd in
        let lines = ref [] in
        let replies = ref 0 in
        while !replies < per_conn do
          match raw_line r with
          | None -> fail "conn %d: eof before %d replies" c per_conn; replies := per_conn
          | Some line ->
              let j = decode_json line in
              lines := j :: !lines;
              if is_reply j then incr replies
        done;
        results.(c) <- List.rev !lines)
  in
  let threads = List.init n_conns (fun c -> Thread.create run_conn c) in
  List.iter Thread.join threads;
  Server.Bqueue.close errors;
  (match Server.Bqueue.pop errors with None -> () | Some m -> Alcotest.fail m);
  Array.iteri
    (fun c lines ->
      let my_ids = List.init per_conn (fun k -> (10 * (c + 1)) + k) in
      List.iter
        (fun j ->
          if not (List.mem (id_of j) my_ids) then
            Alcotest.failf "conn %d saw a foreign id %d" c (id_of j))
        lines;
      List.iter
        (fun id ->
          let mine = List.filter (fun j -> id_of j = id) lines in
          let frames, replies = List.partition Protocol.is_progress mine in
          (match replies with
          | [ reply ] -> (
              (* the reply is the last line for its id *)
              (match List.rev mine with
              | last :: _ when is_reply last -> ()
              | _ -> Alcotest.failf "id %d: frames after the terminal reply" id);
              match Protocol.reply_of_json reply with
              | Ok
                  {
                    Protocol.result =
                      Protocol.Answer { anytime = Some a; answer = Probability p; _ };
                    _;
                  } ->
                  if a.Protocol.any_status <> Protocol.Final then
                    Alcotest.failf "id %d: expected a final status" id;
                  if a.Protocol.any_ci_hi -. a.Protocol.any_ci_lo > 0.1 then
                    Alcotest.failf "id %d: final width %.6g misses the target" id
                      (a.Protocol.any_ci_hi -. a.Protocol.any_ci_lo);
                  if p < a.Protocol.any_ci_lo || p > a.Protocol.any_ci_hi then
                    Alcotest.failf "id %d: answer outside its CI" id
              | Ok _ -> Alcotest.failf "id %d: unexpected reply body" id
              | Error msg -> Alcotest.failf "id %d: undecodable reply: %s" id msg)
          | _ -> Alcotest.failf "id %d: %d terminal replies" id (List.length replies));
          if List.length frames < 2 then
            Alcotest.failf "id %d: only %d progress frame(s) under a 0.1 target" id
              (List.length frames);
          List.iter
            (fun j ->
              match Protocol.progress_of_json j with
              | Ok p ->
                  if p.Protocol.ci_lo > p.Protocol.estimate
                     || p.Protocol.estimate > p.Protocol.ci_hi
                  then Alcotest.failf "id %d: estimate escaped its CI" id
              | Error msg -> Alcotest.failf "id %d: bad frame: %s" id msg)
            frames)
        my_ids)
    results

(* Half-closing mid-stream must cancel the sampling loop: no terminal
   reply is written, the connection closes, and the worker is free for
   the next client. *)
let unit_server_streaming_half_close_cancels () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let fd = raw_connect server in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (* An unreachable target: sampling would run to the draw cap. *)
      raw_send fd
        {
          Protocol.id = Some (Json.Int 1);
          op = Protocol.Eval (streaming_eval ~target_ci:1e-9 ());
        };
      let r = raw_reader fd in
      (match raw_line r with
      | Some line when Protocol.is_progress (decode_json line) -> ()
      | Some line -> Alcotest.failf "expected a progress frame, got %s" line
      | None -> Alcotest.fail "no progress frame before half-close");
      (* Mid-stream now. Close our write side; the server's reader sees
         EOF and the sampling loop must stop within a round. *)
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      let rec drainl acc =
        match raw_line r with None -> acc | Some l -> drainl (l :: acc)
      in
      List.iter
        (fun line ->
          if is_reply (decode_json line) then
            Alcotest.failf "cancelled stream still got a terminal reply: %s" line)
        (drainl []));
  (* The worker is free again: a fresh client gets a prompt answer. *)
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  match Server.Client.eval client (Protocol.eval fast_spec sample_query) with
  | Ok (Protocol.Answer _) -> ()
  | Ok _ -> Alcotest.fail "post-cancel request: unexpected reply"
  | Error msg -> Alcotest.failf "post-cancel request failed: %s" msg

(* Deadline expiry mid-stream is a typed timeout on a normal answer
   carrying the last streamed estimate — not an error. *)
let unit_server_streaming_timeout_carries_estimate () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let fd = raw_connect server in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      raw_send fd
        {
          Protocol.id = Some (Json.Int 7);
          op = Protocol.Eval (streaming_eval ~deadline_ms:1. ());
        };
      let r = raw_reader fd in
      let rec collect frames =
        match raw_line r with
        | None -> Alcotest.fail "eof before the terminal reply"
        | Some line ->
            let j = decode_json line in
            if Protocol.is_progress j then
              match Protocol.progress_of_json j with
              | Ok p -> collect (p :: frames)
              | Error msg -> Alcotest.failf "bad frame: %s" msg
            else (j, List.rev frames)
      in
      let reply, frames = collect [] in
      if frames = [] then
        Alcotest.fail "timeout stream emitted no progress frame";
      let last = List.nth frames (List.length frames - 1) in
      match Protocol.reply_of_json reply with
      | Ok
          {
            Protocol.result =
              Protocol.Answer { anytime = Some a; answer = Probability p; _ };
            _;
          } ->
          if a.Protocol.any_status <> Protocol.Timeout then
            Alcotest.fail "expected a typed timeout status";
          check_float_eq "answer is the last streamed estimate"
            last.Protocol.estimate p;
          check_float_eq "CI lo echoes the last frame" last.Protocol.ci_lo
            a.Protocol.any_ci_lo;
          check_float_eq "CI hi echoes the last frame" last.Protocol.ci_hi
            a.Protocol.any_ci_hi;
          Alcotest.(check int) "draws counted" last.Protocol.draws a.Protocol.any_draws
      | Ok { Protocol.result = Protocol.Err e; _ } ->
          Alcotest.failf "deadline_ms errored instead of timing out: %s"
            e.Protocol.message
      | Ok _ -> Alcotest.fail "unexpected reply body"
      | Error msg -> Alcotest.failf "undecodable reply: %s" msg)

let unit_server_metrics_op () =
  let address = Protocol.Local (temp_socket ()) in
  with_server (Server.default_config address) @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  ignore (Server.Client.ping client);
  match Server.Client.metrics client with
  | Ok (Json.Obj fields) ->
      Alcotest.(check bool) "has counters" true (List.mem_assoc "counters" fields)
  | Ok _ -> Alcotest.fail "metrics snapshot is not an object"
  | Error msg -> Alcotest.failf "metrics failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Sharded coordinator over the wire                                   *)
(* ------------------------------------------------------------------ *)

let sharded_config ?(shards = 4) ?(spec = fast_spec) () =
  let address = Protocol.Local (temp_socket ()) in
  { (Server.default_config address) with Server.preload = [ spec ]; shards }

(* The wire "shards" block: present exactly on sharded answers, exact on
   a healthy cluster, and the answers bit-identical to the unsharded
   engine. *)
let unit_server_sharded_wire_block () =
  let ref_count = reference_response fast_spec Engine.Request.Count ~per_session:false in
  (* The sharded merge canonicalizes ties at p_k to global session order,
     which is exactly the naive reference order; the sequential `Edges
     engine may order those ties by evaluation order instead. *)
  let ref_topk =
    reference_response fast_spec
      (Engine.Request.Top_k { k = 3; strategy = `Naive })
      ~per_session:false
  in
  let ref_ranked =
    List.map
      (fun (s, p) -> (Protocol.key_of_session s, p))
      (Engine.Response.ranked ref_topk)
  in
  with_server (sharded_config ()) @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  (match
     Server.Client.eval client
       (Protocol.eval ~task:Engine.Request.Count fast_spec sample_query)
   with
  | Ok (Protocol.Answer { answer = Protocol.Expectation e; shards = Some b; _ })
    ->
      check_float_eq "sharded count = unsharded engine"
        (Engine.Response.answer_float ref_count)
        e;
      Alcotest.(check int) "block counts the cluster" 4 b.Protocol.sh_count;
      Alcotest.(check bool) "healthy cluster is exact" true b.Protocol.sh_exact;
      Alcotest.(check int) "nothing timed out" 0 b.Protocol.sh_timed_out;
      Alcotest.(check int) "nothing errored" 0 b.Protocol.sh_errored
  | Ok (Protocol.Answer { shards = None; _ }) ->
      Alcotest.fail "sharded server sent no shards block"
  | Ok _ -> Alcotest.fail "unexpected count reply"
  | Error msg -> Alcotest.failf "count failed: %s" msg);
  (* Two-phase top-k: identical ranking, and the block's prune counters
     account for every shard. *)
  match
    Server.Client.eval client
      (Protocol.eval
         ~task:(Engine.Request.Top_k { k = 3; strategy = `Edges 1 })
         fast_spec sample_query)
  with
  | Ok (Protocol.Answer { answer = Protocol.Ranked rows; shards = Some b; _ }) ->
      if rows <> ref_ranked then Alcotest.fail "sharded ranking differs";
      Alcotest.(check bool) "exact" true b.Protocol.sh_exact;
      if b.Protocol.sh_pruned + b.Protocol.sh_deep > b.Protocol.sh_count then
        Alcotest.failf "pruned %d + deep %d > shards %d" b.Protocol.sh_pruned
          b.Protocol.sh_deep b.Protocol.sh_count
  | Ok _ -> Alcotest.fail "unexpected top-k reply"
  | Error msg -> Alcotest.failf "top-k failed: %s" msg

(* Pipelined sharded requests from two connections at once: the
   scatter-gathers interleave on one cluster, yet every reply routes to
   the id that asked and stays bit-identical to the unsharded engine. *)
let unit_server_sharded_pipelined_interleave () =
  let ref_count = reference_response fast_spec Engine.Request.Count ~per_session:false in
  let ref_topk =
    reference_response fast_spec
      (Engine.Request.Top_k { k = 3; strategy = `Naive })
      ~per_session:false
  in
  let ref_ranked =
    List.map
      (fun (s, p) -> (Protocol.key_of_session s, p))
      (Engine.Response.ranked ref_topk)
  in
  with_server (sharded_config ()) @@ fun server ->
  let n_conns = 2 and per_conn = 4 in
  let results = Array.make n_conns [] in
  let errors = Server.Bqueue.create ~capacity:8 in
  let fail fmt =
    Printf.ksprintf (fun m -> ignore (Server.Bqueue.try_push errors m)) fmt
  in
  let task_of k =
    if k land 1 = 0 then Engine.Request.Count
    else Engine.Request.Top_k { k = 3; strategy = `Edges 1 }
  in
  let run_conn c =
    let fd = raw_connect server in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        (* All requests on the wire before reading anything back. *)
        List.iter
          (fun k ->
            raw_send fd
              {
                Protocol.id = Some (Json.Int ((100 * (c + 1)) + k));
                op = Protocol.Eval (Protocol.eval ~task:(task_of k) fast_spec sample_query);
              })
          (List.init per_conn Fun.id);
        let r = raw_reader fd in
        let replies = ref [] in
        while List.length !replies < per_conn do
          match raw_line r with
          | None ->
              fail "conn %d: eof after %d replies" c (List.length !replies);
              replies := List.init per_conn (fun _ -> Json.Null)
          | Some line -> replies := decode_json line :: !replies
        done;
        results.(c) <- !replies)
  in
  let threads = List.init n_conns (fun c -> Thread.create run_conn c) in
  List.iter Thread.join threads;
  Server.Bqueue.close errors;
  (match Server.Bqueue.pop errors with None -> () | Some m -> Alcotest.fail m);
  Array.iteri
    (fun c lines ->
      List.iter
        (fun k ->
          let id = (100 * (c + 1)) + k in
          match List.filter (fun j -> id_of j = id) lines with
          | [ j ] -> (
              match Protocol.reply_of_json j with
              | Ok { Protocol.result = Protocol.Answer { answer; shards = Some b; _ }; _ } -> (
                  Alcotest.(check int)
                    (Printf.sprintf "id %d: cluster size" id)
                    4 b.Protocol.sh_count;
                  Alcotest.(check bool)
                    (Printf.sprintf "id %d: exact" id)
                    true b.Protocol.sh_exact;
                  match (task_of k, answer) with
                  | Engine.Request.Count, Protocol.Expectation e ->
                      check_float_eq "interleaved count"
                        (Engine.Response.answer_float ref_count)
                        e
                  | Engine.Request.Top_k _, Protocol.Ranked rows ->
                      if rows <> ref_ranked then
                        Alcotest.failf "id %d: interleaved ranking differs" id
                  | _ -> Alcotest.failf "id %d: wrong answer shape" id)
              | Ok _ -> Alcotest.failf "id %d: no sharded answer" id
              | Error msg -> Alcotest.failf "id %d: undecodable: %s" id msg)
          | l -> Alcotest.failf "id %d: %d replies" id (List.length l))
        (List.init per_conn Fun.id))
    results

(* A shard that sleeps past the request deadline degrades the reply to a
   typed partial answer — the connection must NOT stall for the length
   of the injected delay, and must NOT claim exactness. *)
let unit_server_sharded_deadline_partial () =
  with_server (sharded_config ~shards:2 ()) @@ fun server ->
  Fun.protect ~finally:Shard.Inject.reset @@ fun () ->
  (* Delay every shard: whichever ones hold sessions will miss the
     deadline (empty shards are never scattered to and stay healthy). *)
  Shard.Inject.set ~shard:0 (Shard.Inject.Delay 1.5);
  Shard.Inject.set ~shard:1 (Shard.Inject.Delay 1.5);
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let reply =
    Server.Client.eval client
      (Protocol.eval ~task:Engine.Request.Count ~timeout_ms:200. fast_spec
         sample_query)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 1.2 then
    Alcotest.failf "reply took %.2fs: the gather waited out the injected delay"
      elapsed;
  match reply with
  | Ok (Protocol.Answer { answer = Protocol.Expectation _; shards = Some b; _ })
    ->
      if b.Protocol.sh_exact then
        Alcotest.fail "partial answer still claimed exact";
      if b.Protocol.sh_timed_out < 1 then
        Alcotest.failf "expected a timed-out shard, got %d answered / %d timed out"
          b.Protocol.sh_answered b.Protocol.sh_timed_out
  | Ok (Protocol.Answer { shards = None; _ }) ->
      Alcotest.fail "partial reply lost its shards block"
  | Ok (Protocol.Err { code = Protocol.Deadline_exceeded; _ }) ->
      (* Acceptable only if the whole gather missed the deadline before
         any shard answered; but the reply must still be prompt. *)
      ()
  | Ok _ -> Alcotest.fail "unexpected reply"
  | Error msg -> Alcotest.failf "transport error: %s" msg

(* Drain with a sharded scatter-gather in flight: the coordinator's
   gather must complete and answer before the cluster shuts down. *)
let unit_server_sharded_drain_completes_inflight () =
  let config = sharded_config ~shards:2 ~spec:slow_spec () in
  let server = Server.start config in
  let inflight = ref (Error "never ran") in
  let t =
    Thread.create
      (fun () ->
        let client = Server.Client.connect ~retries:40 (Server.address server) in
        Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
        inflight :=
          Server.Client.eval client
            (Protocol.eval ~task:Engine.Request.Count slow_spec sample_query))
      ()
  in
  Thread.delay 0.1;
  Server.drain server;
  Thread.join t;
  match !inflight with
  | Ok (Protocol.Answer { shards = Some b; _ }) ->
      Alcotest.(check int) "cluster size" 2 b.Protocol.sh_count;
      Alcotest.(check bool) "in-flight gather finished exact" true
        b.Protocol.sh_exact
  | Ok (Protocol.Answer { shards = None; _ }) ->
      Alcotest.fail "in-flight sharded request answered without a shards block"
  | Ok (Protocol.Err e) ->
      Alcotest.failf "in-flight request got %s: %s"
        (Protocol.error_code_to_string e.Protocol.code)
        e.Protocol.message
  | Ok _ -> Alcotest.fail "unexpected reply"
  | Error msg -> Alcotest.failf "in-flight request lost: %s" msg

(* ------------------------------------------------------------------ *)
(* Prepared plans                                                      *)
(* ------------------------------------------------------------------ *)

let c_plan_hits = Obs.counter "registry.plan_hits"
let c_plan_misses = Obs.counter "registry.plan_misses"

(* Run [f] and return its result with the plan hits and misses it
   counted (the counters are process-wide; tests run one at a time). *)
let plan_traffic f =
  let h0 = Obs.Counter.value c_plan_hits and m0 = Obs.Counter.value c_plan_misses in
  let r = f () in
  (r, Obs.Counter.value c_plan_hits - h0, Obs.Counter.value c_plan_misses - m0)

let check_traffic what ~hits ~misses (_, h, m) =
  Alcotest.(check (pair int int)) (what ^ ": plan hits, misses") (hits, misses) (h, m)

let lang_eval ?(spec = fast_spec) text =
  match Protocol.eval_lang spec text with
  | Ok e -> e
  | Error msg -> Alcotest.failf "parse %S: %s" text msg

let registry_plan registry e =
  match
    Server.Registry.request registry ~budget:0. ~parallelism:`Inter e
  with
  | Ok req -> req.Engine.Request.plan
  | Error err -> Alcotest.failf "request: %s" err.Protocol.message

(* A hit is the very plan the miss compiled. A permuted text digests
   the same but is another query value, so it compiles its own plan. *)
let unit_registry_plan_identity () =
  let registry = Server.Registry.create () in
  let plan e = plan_traffic (fun () -> registry_plan registry e) in
  let e =
    lang_eval
      "count Q() :- prefers(\"cand01\", \"cand03\"), prefers(\"cand02\", \"cand04\")."
  in
  let ((p1, _, _) as miss) = plan e in
  check_traffic "first request" ~hits:0 ~misses:1 miss;
  let ((p2, _, _) as hit) = plan e in
  check_traffic "repeat" ~hits:1 ~misses:0 hit;
  Alcotest.(check bool) "a hit is the compiled plan" true (p1 == p2);
  Alcotest.(check string) "digest equal on a hit and a miss"
    (Hardq.Digest.to_hex (Plan.digest p1))
    (Hardq.Digest.to_hex (Plan.digest p2));
  let permuted =
    lang_eval
      "count Q() :- prefers(\"cand02\", \"cand04\"), prefers(\"cand01\", \"cand03\")."
  in
  let ((p3, _, _) as other) = plan permuted in
  Alcotest.(check string) "permuted conjuncts digest the same"
    (Hardq.Digest.to_hex (Plan.digest p1))
    (Hardq.Digest.to_hex (Plan.digest p3));
  check_traffic "permuted text" ~hits:0 ~misses:1 other;
  (match permuted.Protocol.query with
  | Protocol.Lang { ast; _ } ->
      Alcotest.(check bool) "its plan is its own query" true
        (Lang.Ast.equal ast p3.Plan.ast)
  | Protocol.Cq _ -> Alcotest.fail "expected a text query");
  (* The solver is part of the key. *)
  check_traffic "another hint" ~hits:0 ~misses:1
    (plan { e with Protocol.solver = Hardq.Solver.Exact `General })

(* Interning a label no cached plan uses leaves every plan valid: the
   repeat still hits and answers the same bits. *)
let unit_registry_plan_survives_interning () =
  let registry = Server.Registry.create () in
  let db =
    match Server.Registry.find registry fast_spec with
    | Ok db -> db
    | Error err -> Alcotest.failf "dataset: %s" err.Protocol.message
  in
  let e = Protocol.eval ~task:Engine.Request.Count fast_spec sample_query in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let answer () =
        plan_traffic (fun () ->
            match
              Server.Registry.request registry ~budget:0. ~parallelism:`Inter e
            with
            | Ok req -> Engine.Response.answer_float (Engine.eval engine req)
            | Error err -> Alcotest.failf "request: %s" err.Protocol.message)
      in
      let ((a1, _, _) as miss) = answer () in
      check_traffic "first request" ~hits:0 ~misses:1 miss;
      ignore
        (Ppd.Database.intern_label db
           (Ppd.Database.Attr_cmp ("age", Ppd.Value.Ge, Ppd.Value.Int 33)));
      let ((a2, _, _) as hit) = answer () in
      check_traffic "after interning" ~hits:1 ~misses:0 hit;
      Alcotest.(check int64) "same bits" (Int64.bits_of_float a1) (Int64.bits_of_float a2))

(* The stated bound holds: a dataset keeps [plan_capacity] plans, least
   recently used out first. *)
let unit_registry_plan_bound () =
  Alcotest.(check (list int))
    "capacity at 30, 100, 5000 and 100000 sessions" [ 64; 64; 13; 1 ]
    (List.map
       (fun sessions -> Server.Registry.plan_capacity ~sessions)
       [ 30; 100; 5000; 100_000 ]);
  let registry = Server.Registry.create () in
  let plan e = plan_traffic (fun () -> registry_plan registry e) in
  let query i =
    lang_eval (Printf.sprintf "count Q() :- rank(\"cand00\") <= %d." (i + 1))
  in
  let capacity = Server.Registry.plan_capacity ~sessions:30 in
  for i = 0 to capacity - 1 do
    check_traffic (Printf.sprintf "query %d" i) ~hits:0 ~misses:1 (plan (query i))
  done;
  check_traffic "all resident" ~hits:1 ~misses:0 (plan (query 0));
  (* One more evicts the least recently used: query 1. *)
  check_traffic "one past the bound" ~hits:0 ~misses:1 (plan (query capacity));
  check_traffic "evicted" ~hits:0 ~misses:1 (plan (query 1));
  check_traffic "recently used" ~hits:1 ~misses:0 (plan (query 0))

(* Prepared plans over the wire. A repeated "q" text or "query" CQ is a
   plan hit answering the same bytes, also after a query in between
   interned fresh labels; an unsupported query is a typed error every
   time and leaves no entry; anytime frames are the same bytes on a hit
   as on a miss. *)
let unit_server_plan_cache () =
  let address = Protocol.Local (temp_socket ()) in
  let config =
    { (Server.default_config address) with Server.preload = [ fast_spec ] }
  in
  with_server config @@ fun server ->
  let client = Server.Client.connect ~retries:40 (Server.address server) in
  Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
  let served e =
    plan_traffic (fun () ->
        match Server.Client.eval client e with
        | Ok (Protocol.Err err) -> Error err.Protocol.code
        | Ok result -> (
            let reply = { Protocol.reply_id = None; result } in
            match Json.member "answer" (Protocol.reply_to_json reply) with
            | Some a -> Ok (Json.to_string a)
            | None -> Alcotest.fail "a reply with neither answer nor error")
        | Error msg -> Alcotest.failf "transport error: %s" msg)
  in
  let answer what ~hits ~misses e =
    let ((r, _, _) as t) = served e in
    check_traffic what ~hits ~misses t;
    match r with
    | Ok bytes -> bytes
    | Error code ->
        Alcotest.failf "%s: error %s" what (Protocol.error_code_to_string code)
  in
  let text = lang_eval "count Q() :- prefers(\"cand01\", \"cand03\")." in
  let cq = Protocol.eval ~task:Engine.Request.Count fast_spec sample_query in
  let t1 = answer "\"q\" miss" ~hits:0 ~misses:1 text in
  Alcotest.(check string) "\"q\" hit: same bytes" t1
    (answer "\"q\" hit" ~hits:1 ~misses:0 text);
  let c1 = answer "\"query\" miss" ~hits:0 ~misses:1 cq in
  ignore
    (answer "fresh labels" ~hits:0 ~misses:1
       (lang_eval "count Q() :- prefers(\"cand04\", \"cand05\")."));
  Alcotest.(check string) "\"query\" hit after interning: same bytes" c1
    (answer "\"query\" hit" ~hits:1 ~misses:0 cq);
  Alcotest.(check string) "\"q\" hit after interning: same bytes" t1
    (answer "\"q\" hit again" ~hits:1 ~misses:0 text);
  let head_var =
    Protocol.eval fast_spec
      (Ppd.Parser.parse
         "Q(l) :- P(_, _; l; r), C(l, p, \"M\", _, _, _), C(r, p, \"F\", _, _, _).")
  in
  for i = 1 to 2 do
    match served head_var with
    | (Error Protocol.Unsupported, _, _) as t ->
        check_traffic (Printf.sprintf "unsupported, request %d" i) ~hits:0 ~misses:1 t
    | _ -> Alcotest.failf "unsupported, request %d: not a typed error" i
  done;
  (* Anytime frames, miss then hit, on one raw connection. *)
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let r = raw_reader fd in
  let stream () =
    raw_send fd
      { Protocol.id = Some (Json.Int 7); op = Protocol.Eval (streaming_eval ~target_ci:0.1 ()) };
    let rec lines acc =
      match raw_line r with
      | None -> Alcotest.fail "eof before the terminal reply"
      | Some line ->
          if is_reply (decode_json line) then List.rev acc else lines (line :: acc)
    in
    lines []
  in
  let ((f1, _, _) as miss) = plan_traffic stream in
  check_traffic "anytime miss" ~hits:0 ~misses:1 miss;
  let ((f2, _, _) as hit) = plan_traffic stream in
  check_traffic "anytime hit" ~hits:1 ~misses:0 hit;
  if List.length f1 < 2 then Alcotest.failf "only %d frame(s)" (List.length f1);
  Alcotest.(check (list string)) "frames byte-identical" f1 f2

let suites =
  [
    ( "server.json",
      [
        tc "value round-trips" `Quick unit_json_roundtrip;
        tc "floats cross the wire bit-identically" `Quick
          unit_json_float_precision;
        tc "parse errors carry offsets" `Quick unit_json_parse_errors;
        tc "unicode escapes incl. surrogate pairs" `Quick
          unit_json_unicode_escapes;
        tc "accessors and order-insensitive equality" `Quick unit_json_accessors;
      ] );
    ( "server.protocol",
      [
        tc "requests round-trip" `Quick unit_protocol_request_roundtrip;
        tc "replies round-trip" `Quick unit_protocol_reply_roundtrip;
        tc "bad requests come back typed" `Quick unit_protocol_bad_requests;
        tc "v1 versioning: absent ok, future refused" `Quick
          unit_protocol_versioning;
        tc "unknown members and the additive cache block" `Quick
          unit_protocol_forward_compat;
      ] );
    ( "server.bqueue",
      [
        tc "FIFO order and bounded admission" `Quick unit_bqueue_fifo_and_bound;
        tc "close drains then returns None" `Quick unit_bqueue_close_drains;
        tc "pop blocks until a push" `Quick unit_bqueue_pop_blocks_until_push;
      ] );
    ( "server.query-syntax",
      [
        tc "showcase queries round-trip" `Quick unit_query_to_string_showcase;
        prop_query_to_string_roundtrip;
      ] );
    ( "server.e2e",
      [
        tc "8 concurrent clients, answers bit-identical to Engine.eval" `Quick
          unit_server_concurrent_bit_identity;
        tc "sheds load with typed overloaded; stays up" `Quick
          unit_server_sheds_when_overloaded;
        tc "deadline exceeded comes back typed" `Quick
          unit_server_deadline_exceeded;
        tc "DP state cap comes back as budget_exhausted" `Quick
          unit_server_state_cap_is_budget;
        tc "unsupported query comes back typed; connection survives" `Quick
          unit_server_unsupported_query_is_typed;
        tc "bare-constant Q2: \"query\" and \"q\" answer the same bytes" `Quick
          unit_server_query_and_q_agree;
        tc "hardq query answers what the server answers" `Quick
          unit_server_cli_agrees;
        tc "drain answers in-flight requests, then refuses" `Quick
          unit_server_drain_completes_inflight;
        tc "gather window batches a burst; single-flight solves once" `Quick
          unit_server_batching_single_flight;
        tc "a deadline inside the gather window flushes early" `Quick
          unit_server_batch_starvation_bound;
        tc "a lone connection skips the gather window; a disconnect flushes"
          `Quick unit_server_lone_connection_skips_window;
        tc "overlong request line is bounded, typed, survivable" `Quick
          unit_server_bounded_request_line;
        tc "half-closed client still gets its queued reply" `Quick
          unit_server_half_close_still_replies;
        tc "streaming: pipelined frames route by id, never cross connections"
          `Quick unit_server_streaming_pipelined_routing;
        tc "streaming: mid-stream half-close cancels sampling" `Quick
          unit_server_streaming_half_close_cancels;
        tc "streaming: deadline timeout carries the last estimate" `Quick
          unit_server_streaming_timeout_carries_estimate;
        tc "metrics op returns the Obs registry" `Quick unit_server_metrics_op;
        tc "SIGTERM: binary drains, flushes metrics, exits 0" `Quick
          unit_server_binary_sigterm;
        tc "bad count flags are usage errors naming the flag" `Quick
          unit_binaries_reject_bad_counts;
        tc "a repeated query is a plan hit with the same bytes" `Quick
          unit_server_plan_cache;
      ] );
    ( "server.registry",
      [
        tc "a plan hit is the compiled plan; keys hold the query" `Quick
          unit_registry_plan_identity;
        tc "a plan survives unrelated label interning" `Quick
          unit_registry_plan_survives_interning;
        tc "the plan bound evicts least recently used" `Quick
          unit_registry_plan_bound;
      ] );
    ( "server.sharded",
      [
        tc "wire shards block present, exact, bit-identical answers" `Quick
          unit_server_sharded_wire_block;
        tc "pipelined sharded requests interleave and route by id" `Quick
          unit_server_sharded_pipelined_interleave;
        tc "per-shard deadline expiry yields a partial reply, not a stall"
          `Quick unit_server_sharded_deadline_partial;
        tc "graceful drain completes an in-flight scatter-gather" `Quick
          unit_server_sharded_drain_completes_inflight;
      ] );
  ]

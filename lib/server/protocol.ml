(* Wire protocol: typed requests/replies/errors and their JSON codec.
   See protocol.mli for the shapes; DESIGN.md §9 specifies the schemas. *)

(* Protocol version. Emitted as "v" on every request and reply; decoders
   accept an absent "v" (pre-versioning peers are wire-compatible with
   v1) and reject a different number. Unknown fields are always ignored,
   so additive evolution — like the "cache" stats block — does not need
   a version bump. *)
let version = 1

(* ------------------------------------------------------------------ *)
(* Addresses                                                           *)
(* ------------------------------------------------------------------ *)

type address = Tcp of string * int | Local of string

let address_of_string s =
  if s = "" then Error "empty address"
  else if String.contains s '/' then Ok (Local s)
  else
    match String.rindex_opt s ':' with
    | None -> Ok (Local s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port %S in address %S" port s))

let address_to_string = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Local path -> path

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error_code =
  | Bad_request
  | Query_parse_error
  | Unknown_dataset
  | Unknown_solver
  | Unsupported
  | Overloaded
  | Deadline_exceeded
  | Budget_exhausted
  | Shutting_down
  | Internal

type error = { code : error_code; message : string }

let error_codes =
  [
    (Bad_request, "bad_request");
    (Query_parse_error, "query_parse_error");
    (Unknown_dataset, "unknown_dataset");
    (Unknown_solver, "unknown_solver");
    (Unsupported, "unsupported");
    (Overloaded, "overloaded");
    (Deadline_exceeded, "deadline_exceeded");
    (Budget_exhausted, "budget_exhausted");
    (Shutting_down, "shutting_down");
    (Internal, "internal");
  ]

let error_code_to_string c = List.assoc c error_codes

let error_code_of_string s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) error_codes

let error code message = { code; message }

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type dataset_spec = {
  ds_name : string;
  ds_size : int option;
  ds_sessions : int option;
  ds_seed : int option;
}

let dataset ?size ?sessions ?seed name =
  { ds_name = name; ds_size = size; ds_sessions = sessions; ds_seed = seed }

type query_source =
  | Cq of Ppd.Query.t  (* wire member "query": the datalog fragment *)
  | Lang of { text : string; ast : Lang.Ast.t }
      (* wire member "q": the full query language, compiled by the
         planner server-side. [text] is echoed verbatim on encode. *)

type eval = {
  dataset : dataset_spec;
  query : query_source;
  task : Engine.Request.task;
  solver : Hardq.Solver.t;
  budget : float;
  seed : int;
  timeout_ms : float option;
  per_session : bool;
  target_ci : float option;
      (* v1 additive member "target_ci": accuracy SLO — serve anytime
         until the CI is at most this wide. *)
  deadline_ms : float option;
      (* v1 additive member "deadline_ms": accuracy SLO — serve the best
         estimate reachable in this wall span, degrading to a typed
         "timeout" status instead of a deadline_exceeded error. Distinct
         from [timeout_ms], whose expiry is still a hard error. *)
  stream : bool;
      (* v1 additive member "stream": emit NDJSON progress frames before
         the terminal reply. Only SLO-carrying requests ever produce
         frames; opt-in so pipelined non-streaming clients keep their
         one-line-per-request framing. *)
}

let eval_source ?(task = Engine.Request.Boolean)
    ?(solver = Hardq.Solver.default_exact) ?(budget = 0.) ?(seed = 42)
    ?timeout_ms ?(per_session = false) ?target_ci ?deadline_ms
    ?(stream = false) dataset query =
  { dataset; query; task; solver; budget; seed; timeout_ms; per_session;
    target_ci; deadline_ms; stream }

let eval ?task ?solver ?budget ?seed ?timeout_ms ?per_session ?target_ci
    ?deadline_ms ?stream dataset q =
  eval_source ?task ?solver ?budget ?seed ?timeout_ms ?per_session ?target_ci
    ?deadline_ms ?stream dataset (Cq q)

let eval_lang ?task ?solver ?budget ?seed ?timeout_ms ?per_session ?target_ci
    ?deadline_ms ?stream dataset text =
  match Lang.Parser.parse text with
  | Stdlib.Error e -> Stdlib.Error (Lang.Ast.error_to_string e)
  | Ok ast ->
      Ok
        (eval_source ?task ?solver ?budget ?seed ?timeout_ms ?per_session
           ?target_ci ?deadline_ms ?stream dataset (Lang { text; ast }))

(* The engine-level SLO a request's additive members project onto. *)
let slo_of_eval (e : eval) =
  match (e.target_ci, e.deadline_ms) with
  | Some w, _ -> Some (`Ci_width w)
  | None, Some ms -> Some (`Deadline (ms /. 1000.))
  | None, None -> None

(* Both query forms compile here, before the engine: a query outside the
   supported fragment is a typed [Unsupported] error. *)
let plan_of_eval ~db (e : eval) =
  match
    Obs.with_span "compile" @@ fun () ->
    match e.query with
    | Cq q -> Plan.of_query ~solver:e.solver db q
    | Lang { ast; _ } ->
        (* A non-default wire solver acts as a planner hint; a [using]
           clause in the text wins (Plan.compile's precedence). *)
        let hint =
          if e.solver = Hardq.Solver.default_exact then None else Some e.solver
        in
        Plan.compile ?hint db ast
  with
  | plan -> Ok plan
  | exception (Ppd.Compile.Unsupported msg | Ppd.Compile.Grounding_too_large msg) ->
      Stdlib.Error (error Unsupported msg)

let request_of_plan ~budget ?deadline (e : eval) plan =
  Engine.Request.of_plan ~task:e.task ~budget ~seed:e.seed ?deadline
    ?slo:(slo_of_eval e) plan

type request = { id : Json.t option; op : op }
and op = Eval of eval | Metrics | Ping

let strategy_to_string = function
  | `Naive -> "naive"
  | `Edges n -> Printf.sprintf "%d-edge" n

let strategy_of_string s =
  if s = "naive" then Some `Naive
  else
    match String.index_opt s '-' with
    | Some i when String.sub s i (String.length s - i) = "-edge" -> (
        match int_of_string_opt (String.sub s 0 i) with
        | Some n when n >= 1 -> Some (`Edges n)
        | _ -> None)
    | _ -> None

let dataset_to_json (d : dataset_spec) =
  Json.Obj
    (("name", Json.String d.ds_name)
     ::
     (match d.ds_size with Some v -> [ ("size", Json.Int v) ] | None -> [])
     @ (match d.ds_sessions with
       | Some v -> [ ("sessions", Json.Int v) ]
       | None -> [])
     @
     match d.ds_seed with Some v -> [ ("seed", Json.Int v) ] | None -> [])

let request_to_json (r : request) =
  let id =
    ("v", Json.Int version)
    :: (match r.id with Some v -> [ ("id", v) ] | None -> [])
  in
  match r.op with
  | Ping -> Json.Obj (("op", Json.String "ping") :: id)
  | Metrics -> Json.Obj (("op", Json.String "metrics") :: id)
  | Eval e ->
      let task_fields =
        match e.task with
        | Engine.Request.Boolean -> [ ("task", Json.String "boolean") ]
        | Engine.Request.Count -> [ ("task", Json.String "count") ]
        | Engine.Request.Top_k { k; strategy } ->
            [
              ("task", Json.String "topk");
              ("k", Json.Int k);
              ("strategy", Json.String (strategy_to_string strategy));
            ]
      in
      Json.Obj
        (("op", Json.String "eval")
         :: id
        @ [ ("dataset", dataset_to_json e.dataset) ]
        @ (match e.query with
          | Cq q -> [ ("query", Json.String (Ppd.Query.to_string q)) ]
          | Lang { text; _ } -> [ ("q", Json.String text) ])
        @ task_fields
        @ [
            ("solver", Json.String (Hardq.Solver.to_string e.solver));
            ("budget", Json.Float e.budget);
            ("seed", Json.Int e.seed);
          ]
        @ (match e.timeout_ms with
          | Some ms -> [ ("timeout_ms", Json.Float ms) ]
          | None -> [])
        @ (match e.target_ci with
          | Some w -> [ ("target_ci", Json.Float w) ]
          | None -> [])
        @ (match e.deadline_ms with
          | Some ms -> [ ("deadline_ms", Json.Float ms) ]
          | None -> [])
        @ (if e.stream then [ ("stream", Json.Bool true) ] else [])
        @ if e.per_session then [ ("per_session", Json.Bool true) ] else [])

(* Decoding: every failure is a typed [error] the server can send back. *)

let bad fmt = Printf.ksprintf (fun m -> Stdlib.Error (error Bad_request m)) fmt

let field_int json key ~default =
  match Json.member key json with
  | None -> Ok default
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok i
      | None -> bad "field %S must be an integer" key)

let field_float json key ~default =
  match Json.member key json with
  | None -> Ok default
  | Some v -> (
      match Json.to_float v with
      | Some f -> Ok f
      | None -> bad "field %S must be a number" key)

let field_bool json key ~default =
  match Json.member key json with
  | None -> Ok default
  | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> bad "field %S must be a boolean" key)

let opt_int json key =
  match Json.member key json with
  | None -> Ok None
  | Some v -> (
      match Json.to_int v with
      | Some i -> Ok (Some i)
      | None -> bad "field %S must be an integer" key)

let ( let* ) = Result.bind

let dataset_of_json json =
  match Json.member "dataset" json with
  | None -> bad "missing field \"dataset\""
  | Some (Json.String name) ->
      Ok { ds_name = name; ds_size = None; ds_sessions = None; ds_seed = None }
  | Some (Json.Obj _ as d) -> (
      match Json.member "name" d with
      | Some (Json.String name) ->
          let* ds_size = opt_int d "size" in
          let* ds_sessions = opt_int d "sessions" in
          let* ds_seed = opt_int d "seed" in
          Ok { ds_name = name; ds_size; ds_sessions; ds_seed }
      | _ -> bad "dataset object needs a string field \"name\"")
  | Some _ -> bad "field \"dataset\" must be a string or an object"

let task_of_json json =
  match Json.member "task" json with
  | None -> Ok Engine.Request.Boolean
  | Some (Json.String "boolean") -> Ok Engine.Request.Boolean
  | Some (Json.String "count") -> Ok Engine.Request.Count
  | Some (Json.String "topk") -> (
      let* k = field_int json "k" ~default:5 in
      if k < 1 then bad "field \"k\" must be >= 1"
      else
        match Json.member "strategy" json with
        | None -> Ok (Engine.Request.Top_k { k; strategy = `Edges 1 })
        | Some (Json.String s) -> (
            match strategy_of_string s with
            | Some strategy -> Ok (Engine.Request.Top_k { k; strategy })
            | None -> bad "unknown strategy %S (naive or N-edge)" s)
        | Some _ -> bad "field \"strategy\" must be a string")
  | Some (Json.String other) ->
      bad "unknown task %S (boolean, count or topk)" other
  | Some _ -> bad "field \"task\" must be a string"

let eval_of_json json =
  let* dataset = dataset_of_json json in
  let* query =
    (* "q" (the query language, v1 additive member) and "query" (the
       datalog fragment, original schema) are alternatives. *)
    match (Json.member "q" json, Json.member "query" json) with
    | Some _, Some _ -> bad "fields \"q\" and \"query\" are mutually exclusive"
    | Some (Json.String text), None -> (
        match Lang.Parser.parse text with
        | Ok ast -> Ok (Lang { text; ast })
        | Stdlib.Error e ->
            Stdlib.Error (error Query_parse_error (Lang.Ast.error_to_string e)))
    | Some _, None -> bad "field \"q\" must be a string"
    | None, Some (Json.String text) -> (
        match Ppd.Parser.parse_result text with
        | Ok q -> Ok (Cq q)
        | Stdlib.Error msg -> Stdlib.Error (error Query_parse_error msg))
    | None, Some _ -> bad "field \"query\" must be a string"
    | None, None -> bad "missing field \"query\" (or \"q\")"
  in
  let* task = task_of_json json in
  let* solver =
    match Json.member "solver" json with
    | None -> Ok Hardq.Solver.default_exact
    | Some (Json.String name) -> (
        match Hardq.Solver.of_string name with
        | Ok s -> Ok s
        | Stdlib.Error msg -> Stdlib.Error (error Unknown_solver msg))
    | Some _ -> bad "field \"solver\" must be a string"
  in
  let* budget = field_float json "budget" ~default:0. in
  let* seed = field_int json "seed" ~default:42 in
  let* timeout_ms =
    match Json.member "timeout_ms" json with
    | None -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some f when f > 0. -> Ok (Some f)
        | Some _ -> bad "field \"timeout_ms\" must be positive"
        | None -> bad "field \"timeout_ms\" must be a number")
  in
  let* per_session = field_bool json "per_session" ~default:false in
  let* target_ci =
    match Json.member "target_ci" json with
    | None -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some w when w > 0. -> Ok (Some w)
        | Some _ -> bad "field \"target_ci\" must be positive"
        | None -> bad "field \"target_ci\" must be a number")
  in
  let* deadline_ms =
    match Json.member "deadline_ms" json with
    | None -> Ok None
    | Some v -> (
        match Json.to_float v with
        | Some ms when ms > 0. -> Ok (Some ms)
        | Some _ -> bad "field \"deadline_ms\" must be positive"
        | None -> bad "field \"deadline_ms\" must be a number")
  in
  let* () =
    match (target_ci, deadline_ms) with
    | Some _, Some _ ->
        bad "fields \"target_ci\" and \"deadline_ms\" are mutually exclusive"
    | _ -> Ok ()
  in
  let* stream = field_bool json "stream" ~default:false in
  Ok
    { dataset; query; task; solver; budget; seed; timeout_ms; per_session;
      target_ci; deadline_ms; stream }

let check_version json =
  match Json.member "v" json with
  | None -> Ok () (* pre-versioning peer: wire-compatible with v1 *)
  | Some (Json.Int v) when v = version -> Ok ()
  | Some (Json.Int v) -> bad "unsupported protocol version %d (this is v%d)" v version
  | Some _ -> bad "field \"v\" must be an integer"

let request_of_json json =
  match json with
  | Json.Obj _ -> (
      let id = Json.member "id" json in
      let* () = check_version json in
      let* op =
        match Json.member "op" json with
        | Some (Json.String "ping") -> Ok Ping
        | Some (Json.String "metrics") -> Ok Metrics
        | Some (Json.String "eval") ->
            let* e = eval_of_json json in
            Ok (Eval e)
        | Some (Json.String other) ->
            bad "unknown op %S (eval, metrics or ping)" other
        | Some _ -> bad "field \"op\" must be a string"
        | None -> bad "missing field \"op\""
      in
      Ok { id; op })
  | _ -> bad "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

type cache_stats = {
  answer_hits : int;
  answer_misses : int;
  sf_joins : int;
  term_hits : int;
  term_misses : int;
  batch_id : int;
  batch_size : int;
}

type stats = {
  sessions : int;
  distinct : int;
  cache_hits : int;
  cache_misses : int;
  solver_calls : int;
  jobs : int;
  compile_s : float;
  bound_s : float;
  solve_s : float;
  total_s : float;
  queue_s : float;
  server_s : float;
  cache : cache_stats option;
      (* v1 additive block; [None] when the peer predates it *)
}

type answer =
  | Probability of float
  | Expectation of float
  | Ranked of (Ppd.Value.t list * float) list

(* Anytime serving: how an SLO-carrying request concluded. "final" = the
   SLO was met (a degenerate ci_lo = ci_hi interval when the cost model
   answered exactly); "timeout" = the deadline or draw cap expired first
   and the answer is the best estimate so far. A v1 additive reply
   block — pre-anytime peers ignore it. *)
type anytime_status = Final | Timeout

type anytime = {
  any_status : anytime_status;
  any_rounds : int;
  any_draws : int;
  any_ci_lo : float;
  any_ci_hi : float;
}

(* Scatter-gather accounting of a request served by the sharded session
   store: how many shards there are, how each fared, the cross-shard
   top-k prune counts, and whether the answer is exact or a typed lower
   bound (some shards timed out or errored). A v1 additive reply block
   with the same contract as "cache"/"anytime" — pre-sharding peers
   ignore it, unsharded servers omit it. *)
type shards_block = {
  sh_count : int;
  sh_answered : int;
  sh_timed_out : int;
  sh_errored : int;
  sh_pruned : int;
  sh_deep : int;
  sh_exact : bool;
}

type reply = { reply_id : Json.t option; result : result_body }

and result_body =
  | Answer of {
      answer : answer;
      per_session : (Ppd.Value.t list * float) list option;
      stats : stats;
      anytime : anytime option;
          (* v1 additive block; [None] on plain (no-SLO) evaluation or
             when the peer predates it *)
      shards : shards_block option;
          (* v1 additive block; [None] on unsharded servers or when the
             peer predates it *)
    }
  | Metrics_snapshot of Json.t
  | Pong
  | Err of error

(* One NDJSON progress frame of a streaming anytime evaluation: not a
   reply (no "ok" member — the terminal reply still follows), tagged
   "frame":"progress" and carrying the request id, so an interleaving
   client routes it. Emitted only when the request set "stream". *)
type progress = {
  progress_id : Json.t option;
  round : int;
  draws : int;
  estimate : float;
  ci_lo : float;
  ci_hi : float;
}

let value_to_json = function
  | Ppd.Value.Int i -> Json.Int i
  | Ppd.Value.Str s -> Json.String s

let value_of_json = function
  | Json.Int i -> Some (Ppd.Value.Int i)
  | Json.String s -> Some (Ppd.Value.Str s)
  | _ -> None

let session_row (key, p) =
  Json.Obj
    [
      ("session", Json.List (List.map value_to_json key)); ("p", Json.Float p);
    ]

let session_row_of_json j =
  match (Json.member "session" j, Json.member "p" j) with
  | Some (Json.List key), Some p -> (
      match (List.map value_of_json key, Json.to_float p) with
      | vals, Some p when List.for_all Option.is_some vals ->
          Some (List.map Option.get vals, p)
      | _ -> None)
  | _ -> None

let stats_to_json (s : stats) =
  Json.Obj
    ([
      ("sessions", Json.Int s.sessions);
      ("distinct", Json.Int s.distinct);
      ("cache_hits", Json.Int s.cache_hits);
      ("cache_misses", Json.Int s.cache_misses);
      ("solver_calls", Json.Int s.solver_calls);
      ("jobs", Json.Int s.jobs);
      ("compile_s", Json.Float s.compile_s);
      ("bound_s", Json.Float s.bound_s);
      ("solve_s", Json.Float s.solve_s);
      ("total_s", Json.Float s.total_s);
      ("queue_s", Json.Float s.queue_s);
      ("server_s", Json.Float s.server_s);
    ]
    @
    match s.cache with
    | None -> []
    | Some c ->
        [
          ( "cache",
            Json.Obj
              [
                ("answer_hits", Json.Int c.answer_hits);
                ("answer_misses", Json.Int c.answer_misses);
                ("sf_joins", Json.Int c.sf_joins);
                ("term_hits", Json.Int c.term_hits);
                ("term_misses", Json.Int c.term_misses);
                ("batch_id", Json.Int c.batch_id);
                ("batch_size", Json.Int c.batch_size);
              ] );
        ])

(* The "cache" block is optional (a pre-v1 server omits it) but, when
   present, must be well-formed: a malformed block is a decode failure,
   not a silent [None]. *)
let cache_stats_of_json j =
  match Json.member "cache" j with
  | None -> Some None
  | Some c ->
      let int k = Option.bind (Json.member k c) Json.to_int in
      (match
         ( (int "answer_hits", int "answer_misses", int "sf_joins"),
           (int "term_hits", int "term_misses"),
           (int "batch_id", int "batch_size") )
       with
      | ( (Some answer_hits, Some answer_misses, Some sf_joins),
          (Some term_hits, Some term_misses),
          (Some batch_id, Some batch_size) ) ->
          Some
            (Some
               {
                 answer_hits;
                 answer_misses;
                 sf_joins;
                 term_hits;
                 term_misses;
                 batch_id;
                 batch_size;
               })
      | _ -> None)

let stats_of_json j =
  let int k = Option.bind (Json.member k j) Json.to_int in
  let flt k = Option.bind (Json.member k j) Json.to_float in
  match
    ( (int "sessions", int "distinct", int "cache_hits", int "cache_misses"),
      (int "solver_calls", int "jobs"),
      (flt "compile_s", flt "bound_s", flt "solve_s", flt "total_s"),
      (flt "queue_s", flt "server_s", cache_stats_of_json j) )
  with
  | ( (Some sessions, Some distinct, Some cache_hits, Some cache_misses),
      (Some solver_calls, Some jobs),
      (Some compile_s, Some bound_s, Some solve_s, Some total_s),
      (Some queue_s, Some server_s, Some cache) ) ->
      Some
        {
          sessions;
          distinct;
          cache_hits;
          cache_misses;
          solver_calls;
          jobs;
          compile_s;
          bound_s;
          solve_s;
          total_s;
          queue_s;
          server_s;
          cache;
        }
  | _ -> None

let anytime_status_to_string = function Final -> "final" | Timeout -> "timeout"

let anytime_status_of_string = function
  | "final" -> Some Final
  | "timeout" -> Some Timeout
  | _ -> None

let anytime_to_json (a : anytime) =
  Json.Obj
    [
      ("status", Json.String (anytime_status_to_string a.any_status));
      ("rounds", Json.Int a.any_rounds);
      ("draws", Json.Int a.any_draws);
      ("ci_lo", Json.Float a.any_ci_lo);
      ("ci_hi", Json.Float a.any_ci_hi);
    ]

(* Same contract as the "cache" block: an absent "anytime" member is fine
   (pre-anytime peer), a malformed one is a decode failure. *)
let anytime_of_json j =
  match Json.member "anytime" j with
  | None -> Some None
  | Some a -> (
      let int k = Option.bind (Json.member k a) Json.to_int in
      let flt k = Option.bind (Json.member k a) Json.to_float in
      match
        ( Option.bind
            (Option.bind (Json.member "status" a) Json.to_string_opt)
            anytime_status_of_string,
          (int "rounds", int "draws"),
          (flt "ci_lo", flt "ci_hi") )
      with
      | ( Some any_status,
          (Some any_rounds, Some any_draws),
          (Some any_ci_lo, Some any_ci_hi) ) ->
          Some
            (Some { any_status; any_rounds; any_draws; any_ci_lo; any_ci_hi })
      | _ -> None)

let shards_to_json (s : shards_block) =
  Json.Obj
    [
      ("count", Json.Int s.sh_count);
      ("answered", Json.Int s.sh_answered);
      ("timed_out", Json.Int s.sh_timed_out);
      ("errored", Json.Int s.sh_errored);
      ("pruned", Json.Int s.sh_pruned);
      ("deep", Json.Int s.sh_deep);
      ("exact", Json.Bool s.sh_exact);
    ]

(* Same contract as "cache"/"anytime": an absent "shards" member is fine
   (unsharded or pre-sharding peer), a malformed one is a decode
   failure. *)
let shards_of_json j =
  match Json.member "shards" j with
  | None -> Some None
  | Some s -> (
      let int k = Option.bind (Json.member k s) Json.to_int in
      let bool k =
        match Json.member k s with Some (Json.Bool b) -> Some b | _ -> None
      in
      match
        ( (int "count", int "answered"),
          (int "timed_out", int "errored"),
          (int "pruned", int "deep", bool "exact") )
      with
      | ( (Some sh_count, Some sh_answered),
          (Some sh_timed_out, Some sh_errored),
          (Some sh_pruned, Some sh_deep, Some sh_exact) ) ->
          Some
            (Some
               {
                 sh_count;
                 sh_answered;
                 sh_timed_out;
                 sh_errored;
                 sh_pruned;
                 sh_deep;
                 sh_exact;
               })
      | _ -> None)

let progress_to_json (p : progress) =
  Json.Obj
    (("v", Json.Int version)
     :: (match p.progress_id with Some v -> [ ("id", v) ] | None -> [])
    @ [
        ("frame", Json.String "progress");
        ("round", Json.Int p.round);
        ("draws", Json.Int p.draws);
        ("estimate", Json.Float p.estimate);
        ("ci_lo", Json.Float p.ci_lo);
        ("ci_hi", Json.Float p.ci_hi);
      ])

let is_progress j =
  match Json.member "frame" j with
  | Some (Json.String "progress") -> true
  | _ -> false

let progress_of_json j =
  match check_version j with
  | Stdlib.Error e -> Stdlib.Error e.message
  | Ok () ->
      if not (is_progress j) then Stdlib.Error "not a progress frame"
      else
        let int k = Option.bind (Json.member k j) Json.to_int in
        let flt k = Option.bind (Json.member k j) Json.to_float in
        (match
           (int "round", int "draws", flt "estimate", flt "ci_lo", flt "ci_hi")
         with
        | Some round, Some draws, Some estimate, Some ci_lo, Some ci_hi ->
            Ok
              {
                progress_id = Json.member "id" j;
                round;
                draws;
                estimate;
                ci_lo;
                ci_hi;
              }
        | _ -> Stdlib.Error "malformed progress frame")

let progress_of_frame ?id (f : Hardq.Anytime.frame) =
  {
    progress_id = id;
    round = f.Hardq.Anytime.round;
    draws = f.Hardq.Anytime.draws;
    estimate = f.Hardq.Anytime.estimate;
    ci_lo = f.Hardq.Anytime.ci_lo;
    ci_hi = f.Hardq.Anytime.ci_hi;
  }

let answer_to_json = function
  | Probability p ->
      Json.Obj [ ("kind", Json.String "probability"); ("value", Json.Float p) ]
  | Expectation e ->
      Json.Obj [ ("kind", Json.String "expectation"); ("value", Json.Float e) ]
  | Ranked rows ->
      Json.Obj
        [
          ("kind", Json.String "ranked");
          ("ranked", Json.List (List.map session_row rows));
        ]

let answer_of_json j =
  match Json.member "kind" j with
  | Some (Json.String "probability") ->
      Option.map
        (fun v -> Probability v)
        (Option.bind (Json.member "value" j) Json.to_float)
  | Some (Json.String "expectation") ->
      Option.map
        (fun v -> Expectation v)
        (Option.bind (Json.member "value" j) Json.to_float)
  | Some (Json.String "ranked") -> (
      match Json.member "ranked" j with
      | Some (Json.List rows) ->
          let parsed = List.map session_row_of_json rows in
          if List.for_all Option.is_some parsed then
            Some (Ranked (List.map Option.get parsed))
          else None
      | _ -> None)
  | _ -> None

let reply_to_json (r : reply) =
  let id =
    ("v", Json.Int version)
    :: (match r.reply_id with Some v -> [ ("id", v) ] | None -> [])
  in
  match r.result with
  | Pong -> Json.Obj (id @ [ ("ok", Json.Bool true); ("pong", Json.Bool true) ])
  | Metrics_snapshot snap ->
      Json.Obj (id @ [ ("ok", Json.Bool true); ("metrics", snap) ])
  | Err e ->
      Json.Obj
        (id
        @ [
            ("ok", Json.Bool false);
            ( "error",
              Json.Obj
                [
                  ("code", Json.String (error_code_to_string e.code));
                  ("message", Json.String e.message);
                ] );
          ])
  | Answer { answer; per_session; stats; anytime; shards } ->
      Json.Obj
        (id
        @ [ ("ok", Json.Bool true); ("answer", answer_to_json answer) ]
        @ (match anytime with
          | Some a -> [ ("anytime", anytime_to_json a) ]
          | None -> [])
        @ (match shards with
          | Some s -> [ ("shards", shards_to_json s) ]
          | None -> [])
        @ (match per_session with
          | Some rows ->
              [ ("per_session", Json.List (List.map session_row rows)) ]
          | None -> [])
        @ [ ("stats", stats_to_json stats) ])

let reply_of_json j =
  let reply_id = Json.member "id" j in
  match check_version j with
  | Stdlib.Error e -> Stdlib.Error e.message
  | Ok () -> (
  match Json.member "ok" j with
  | Some (Json.Bool false) -> (
      match Json.member "error" j with
      | Some e -> (
          match
            ( Option.bind
                (Option.bind (Json.member "code" e) Json.to_string_opt)
                error_code_of_string,
              Option.bind (Json.member "message" e) Json.to_string_opt )
          with
          | Some code, Some message ->
              Ok { reply_id; result = Err { code; message } }
          | _ -> Stdlib.Error "malformed error reply")
      | None -> Stdlib.Error "error reply without \"error\" field")
  | Some (Json.Bool true) -> (
      match (Json.member "pong" j, Json.member "metrics" j, Json.member "answer" j) with
      | Some (Json.Bool true), _, _ -> Ok { reply_id; result = Pong }
      | _, Some snap, _ -> Ok { reply_id; result = Metrics_snapshot snap }
      | _, _, Some ans -> (
          match
            ( answer_of_json ans,
              Option.bind (Json.member "stats" j) stats_of_json,
              anytime_of_json j,
              shards_of_json j )
          with
          | Some answer, Some stats, Some anytime, Some shards ->
              let per_session =
                match Json.member "per_session" j with
                | Some (Json.List rows) ->
                    let parsed = List.map session_row_of_json rows in
                    if List.for_all Option.is_some parsed then
                      Some (List.map Option.get parsed)
                    else None
                | _ -> None
              in
              Ok
                {
                  reply_id;
                  result =
                    Answer { answer; per_session; stats; anytime; shards };
                }
          | _ -> Stdlib.Error "malformed answer reply")
      | _ -> Stdlib.Error "ok reply without pong/metrics/answer")
  | _ -> Stdlib.Error "reply without boolean \"ok\" field")

(* ------------------------------------------------------------------ *)
(* Engine-response projection                                          *)
(* ------------------------------------------------------------------ *)

let key_of_session (s : Ppd.Database.session) =
  Array.to_list s.Ppd.Database.key

let answer_of_response (resp : Engine.Response.t) =
  match resp.Engine.Response.answer with
  | Engine.Response.Probability p -> Probability p
  | Engine.Response.Expectation e -> Expectation e
  | Engine.Response.Ranked rows ->
      Ranked (List.map (fun (s, p) -> (key_of_session s, p)) rows)

(* Project an engine-level serve outcome onto the wire block. [`Cancelled]
   never reaches the wire: the client that could have read it is gone. *)
let anytime_of_engine (a : Engine.anytime) =
  let status =
    match a.Engine.status with
    | `Final -> Some Final
    | `Timeout -> Some Timeout
    | `Cancelled -> None
  in
  Option.map
    (fun any_status ->
      {
        any_status;
        any_rounds = a.Engine.rounds;
        any_draws = a.Engine.draws;
        any_ci_lo = a.Engine.ci_lo;
        any_ci_hi = a.Engine.ci_hi;
      })
    status

(* Project the engine's scatter-gather accounting (present iff the
   request ran on the sharded session store) onto the wire block. *)
let shards_of_response (resp : Engine.Response.t) =
  Option.map
    (fun (s : Shard.summary) ->
      {
        sh_count = s.Shard.shards;
        sh_answered = s.Shard.answered;
        sh_timed_out = s.Shard.timed_out;
        sh_errored = s.Shard.errored;
        sh_pruned = s.Shard.pruned_shards;
        sh_deep = s.Shard.deep_shards;
        sh_exact = s.Shard.exact;
      })
    resp.Engine.Response.stats.Engine.Response.shards

let stats_of_response ~queue_s ~server_s (resp : Engine.Response.t) =
  let s = resp.Engine.Response.stats in
  {
    sessions = s.Engine.Response.sessions;
    distinct = s.Engine.Response.distinct;
    cache_hits = s.Engine.Response.cache_hits;
    cache_misses = s.Engine.Response.cache_misses;
    solver_calls = s.Engine.Response.solver_calls;
    jobs = s.Engine.Response.jobs;
    compile_s = s.Engine.Response.compile_s;
    bound_s = s.Engine.Response.bound_s;
    solve_s = s.Engine.Response.solve_s;
    total_s = s.Engine.Response.total_s;
    queue_s;
    server_s;
    cache =
      Some
        {
          answer_hits = s.Engine.Response.cache_hits;
          answer_misses = s.Engine.Response.cache_misses;
          sf_joins = s.Engine.Response.sf_joins;
          term_hits = s.Engine.Response.term_hits;
          term_misses = s.Engine.Response.term_misses;
          batch_id = s.Engine.Response.batch_id;
          batch_size = s.Engine.Response.batch_size;
        };
  }

(* ------------------------------------------------------------------ *)
(* Obs snapshot                                                        *)
(* ------------------------------------------------------------------ *)

let snapshot_to_json (snap : Obs.snapshot) =
  let counters =
    List.filter_map
      (function n, Obs.Count v -> Some (n, Json.Int v) | _ -> None)
      snap
  in
  let hists =
    List.filter_map
      (function
        | n, Obs.Hist { count; sum; buckets } ->
            Some
              ( n,
                Json.Obj
                  [
                    ("count", Json.Int count);
                    ("sum", Json.Int sum);
                    ( "buckets",
                      Json.List
                        (List.map
                           (fun (lo, c) -> Json.List [ Json.Int lo; Json.Int c ])
                           buckets) );
                  ] )
        | _ -> None)
      snap
  in
  Json.Obj [ ("counters", Json.Obj counters); ("histograms", Json.Obj hists) ]

(* perfbench — closed-loop serving benchmark with a per-layer traced run.

   One invocation runs one workload (see [Workload]) in this process: it
   starts the real query server on a Unix-domain socket, drives it
   closed-loop over at most nproc connections, checks every reply against
   a reference answer computed once up front, and prints the workload's
   metrics as the last line of standard output:

     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

   With [--trace 0] the metrics are the end-to-end ones; with [--trace 1]
   the run also replays the workload's request lines on one thread
   through the public calls the server makes, recording spans around
   each layer, and the metrics are the per-layer ones.

   Usage:
     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --self-test

   Run outputs (sockets, span dumps) go under [.perfbench/] in the
   current directory. *)

module J = Server.Json
module P = Server.Protocol

let wall = Unix.gettimeofday
let out_dir = ".perfbench"

(* ------------------------------------------------------------------ *)
(* Metric tables — the single source of names and units                *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit : string; better : string }

let m name unit better = { name; unit; better }

let end_to_end =
  [
    m "setup_s" "s" "lower";
    m "throughput_qps" "1/s" "higher";
    m "latency_p50_ms" "ms" "lower";
    m "latency_tail_ms" "ms" "lower";
    m "peak_rss_mb" "MB" "lower";
    m "ok_frac" "ratio" "higher";
  ]

let per_layer =
  [
    m "server.decode_us" "us" "lower";
    m "server.encode_us" "us" "lower";
    m "server.queue_wait_ms" "ms" "lower";
    m "server.batch_size_mean" "count" "higher";
    m "lang.parse_us" "us" "lower";
    m "plan.compile_us" "us" "lower";
    m "ppd.compile_ms" "ms" "lower";
    m "ppd.labels_interned" "count" "lower";
    m "engine.overhead_ms" "ms" "lower";
    m "engine.answer_hit_rate" "ratio" "higher";
    m "engine.term_hit_rate" "ratio" "higher";
    m "engine.sf_join_rate" "ratio" "higher";
    m "engine.distinct_per_session" "ratio" "lower";
    m "core.solve_ms" "ms" "lower";
    m "core.bound_ms" "ms" "lower";
    m "core.dp_states_per_req" "count" "lower";
    m "core.solver_calls_per_req" "count" "lower";
    m "core.anytime_rounds" "count" "lower";
    m "core.anytime_draws" "count" "lower";
    m "core.draws_per_s" "1/s" "higher";
    m "shard.prune_rate" "ratio" "higher";
    m "shard.deep_per_topk" "count" "lower";
    m "proc.cpu_util" "ratio" "higher";
    m "proc.alloc_mb_per_req" "MB" "lower";
    m "proc.major_gcs_per_req" "count" "lower";
    m "trace.request_ms" "ms" "lower";
    m "trace.overhead_ms" "ms" "lower";
  ]

(* ------------------------------------------------------------------ *)
(* Small statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Linear interpolation between order statistics of a sorted array. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    sorted.(lo) +. ((h -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted_of_list l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l = quantile (sorted_of_list l) 0.5
let sum = List.fold_left ( +. ) 0.
let mean l = match l with [] -> 0. | _ -> sum l /. float_of_int (List.length l)
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* The tail percentile: the highest that keeps at least ten samples
   beyond it in every block and stays steady from run to run. On a
   shared 2-vCPU host the hypervisor at times takes 5-35% of the CPU
   time (steal, see [steal_pct]), and requests that meet a stolen slice
   wait it out, so the upper percentiles move far more than the median:
   at about 9% steal the warm-mix p50 rose 9%, p75 15%, p90 35% and p95
   40%; at 16-22% steal cold p50 rose 34-38%, p75 50% and p90 70-90%.
   A p95 tail moved by up to 38% between sets of runs of the same
   code. The summary line prints the block medians of p50 to p99 beside
   it, and the steal seen in the timed phase. *)
let tail_q = 0.75

(* ------------------------------------------------------------------ *)
(* Reference answers                                                   *)
(* ------------------------------------------------------------------ *)

type expected =
  | Prob of float
  | Expect of float
  | Ranking of (Ppd.Value.t list * float) list

(* The sequential reference ([Engine.Reference] = [Ppd.Solve]) on the
   reference datalog query of a template. *)
let reference db (query, task) =
  let q = Ppd.Parser.parse query in
  let rng () = Util.Rng.make Workload.base_seed in
  match (task : Engine.Request.task) with
  | Boolean -> Prob (Engine.Reference.boolean_prob db q (rng ()))
  | Count -> Expect (Engine.Reference.count_sessions db q (rng ()))
  | Top_k { k; strategy } ->
      let r = Engine.Reference.top_k ~strategy ~k db q (rng ()) in
      Ranking
        (List.map (fun (s, p) -> (P.key_of_session s, p)) r.Engine.Reference.results)

(* Shift every reference float by one ulp: the harness self-test's
   deliberately wrong oracle. *)
let corrupt = function
  | Prob x -> Prob (Float.succ x)
  | Expect x -> Expect (Float.succ x)
  | Ranking r -> Ranking (List.map (fun (k, p) -> (k, Float.succ p)) r)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_ranking a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ka, pa) (kb, pb) -> List.equal Ppd.Value.equal ka kb && same_float pa pb)
       a b

let exact_value = function Prob x | Expect x -> Some x | Ranking _ -> None

(* ------------------------------------------------------------------ *)
(* Reply checking                                                      *)
(* ------------------------------------------------------------------ *)

type outcome = Correct | Wrong of string | Failed of string | Shed

let check_answer (w : Workload.t) expected (body : P.result_body) =
  match body with
  | P.Err { code = P.Overloaded; _ } -> Shed
  | P.Err e -> Failed (P.error_code_to_string e.code ^ ": " ^ e.message)
  | P.Metrics_snapshot _ | P.Pong -> Failed "unexpected reply kind"
  | P.Answer { answer; anytime; shards; _ } -> (
      let exact_match () =
        match (expected, answer) with
        | Prob x, P.Probability v | Expect x, P.Expectation v ->
            if same_float x v then Correct
            else Wrong (Printf.sprintf "got %.17g, reference %.17g" v x)
        | Ranking r, P.Ranked v ->
            if same_ranking r v then Correct else Wrong "ranking differs from reference"
        | _ -> Wrong "answer kind differs from reference"
      in
      match w.check with
      | Workload.Exact -> exact_match ()
      | Workload.Sharded_exact -> (
          match shards with
          | Some b when b.P.sh_exact -> exact_match ()
          | Some _ -> Wrong "sharded answer not exact"
          | None -> Wrong "reply has no shards block")
      | Workload.Ci target -> (
          match (anytime, exact_value expected) with
          | None, _ -> Wrong "reply has no anytime block"
          | _, None -> Wrong "no scalar reference"
          | Some a, Some x ->
              if a.P.any_status <> P.Final then Wrong "anytime status is not final"
              else if a.P.any_ci_hi -. a.P.any_ci_lo > target then
                Wrong
                  (Printf.sprintf "CI width %.6g exceeds target %g"
                     (a.P.any_ci_hi -. a.P.any_ci_lo) target)
              else if not (a.P.any_ci_lo <= x && x <= a.P.any_ci_hi) then
                Wrong
                  (Printf.sprintf "CI [%.17g, %.17g] misses exact %.17g" a.P.any_ci_lo
                     a.P.any_ci_hi x)
              else Correct))

(* ------------------------------------------------------------------ *)
(* A minimal NDJSON client that also reads streamed progress frames    *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; ic : in_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd }

let close_conn c = try close_in c.ic with Sys_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

(* Send one request line and read lines until its terminal reply,
   skipping the progress frames of a streamed anytime evaluation. *)
let rpc c line =
  send c line;
  let rec go () =
    match J.of_string (input_line c.ic) with
    | Ok j when P.is_progress j -> go ()
    | Ok j -> j
    | Error msg -> failwith ("unparseable reply: " ^ msg)
  in
  go ()

let request_line ?(id = 0) e =
  J.to_string (P.request_to_json { P.id = Some (J.Int id); op = P.Eval e })

(* ------------------------------------------------------------------ *)
(* Server set-up and warm-up                                           *)
(* ------------------------------------------------------------------ *)

let nproc = max 1 (Domain.recommended_domain_count ())
let jobs = nproc
let connections (w : Workload.t) = min w.connections nproc

let server_config (w : Workload.t) path =
  {
    (Server.default_config (P.Local path)) with
    Server.jobs = Some jobs;
    cache_capacity = w.cache_capacity;
    term_cache_capacity = w.term_cache_capacity;
    workers = 2;
    shards = w.shards;
    preload = [ Workload.spec w ];
    quiet = true;
  }

let config_json (cfg : Server.config) =
  J.Obj
    [
      ("jobs", J.Int (Option.value ~default:0 cfg.Server.jobs));
      ("workers", J.Int cfg.workers);
      ("batch_window_ms", J.Float cfg.batch_window_ms);
      ("batch_max", J.Int cfg.batch_max);
      ("cache_capacity", J.Int cfg.cache_capacity);
      ("term_cache_capacity", J.Int cfg.term_cache_capacity);
      ("queue_capacity", J.Int cfg.queue_capacity);
      ("shards", J.Int cfg.shards);
      ("intra", J.Bool cfg.intra);
      ("kernel", J.String (Hardq.Kernel.to_string cfg.kernel));
    ]

let answer_misses (j : J.t) =
  match P.reply_of_json j with
  | Ok { P.result = P.Answer { stats = { P.cache = Some c; _ }; _ }; _ } ->
      Ok c.P.answer_misses
  | Ok { P.result = P.Answer _; _ } -> Ok 0
  | Ok { P.result = P.Err e; _ } -> Error e.P.message
  | Ok _ -> Error "unexpected reply kind"
  | Error msg -> Error msg

(* Warm-up passes over the template set; [request t] sends one request
   for template [t] and returns its answer-tier misses. [Until_no_miss]
   repeats until a whole pass has zero misses. Returns the passes run. *)
let warm_up (w : Workload.t) request =
  let pass () = Array.fold_left (fun misses t -> misses + request t) 0 w.templates in
  match w.warm_up with
  | Workload.Passes n ->
      for _ = 1 to n do
        ignore (pass ())
      done;
      n
  | Workload.Until_no_miss ->
      let rec go i =
        if i > 10 then failwith "warm-up: no zero-miss pass within 10 passes"
        else if pass () > 0 then go (i + 1)
        else i
      in
      go 1

type live = {
  server : Server.t;
  conns : conn array;
  setup_s : float;
  passes : int;  (** warm-up passes run *)
}

(* Set-up as timed: dataset synthesis (the preload) and Server.start,
   then the warm-up. Connecting is immediate — the socket is bound before
   [Server.start] returns — so no retry delay is ever paid. *)
let setup w path =
  let t0 = wall () in
  let server = Server.start (server_config w path) in
  let conns = Array.init (connections w) (fun _ -> connect path) in
  let request (t : Workload.template) =
    let line = request_line (Workload.eval w t ~seed:Workload.base_seed) in
    match answer_misses (rpc conns.(0) line) with
    | Ok n -> n
    | Error msg -> failwith (Printf.sprintf "warm-up %s: %s" t.name msg)
  in
  let passes = warm_up w request in
  { server; conns; setup_s = wall () -. t0; passes }

let teardown live =
  Array.iter close_conn live.conns;
  Server.drain live.server

(* ------------------------------------------------------------------ *)
(* The timed closed loop                                               *)
(* ------------------------------------------------------------------ *)

type record = {
  tpl : int;  (** index into the workload's templates *)
  latency : float;
  done_at : float;  (** wall time the reply arrived *)
  outcome : outcome;
  stats : P.stats option;
  anytime : P.anytime option;
  shards : P.shards_block option;
}

(* Every connection sends its next request only after the previous reply
   arrived, until [seconds] have passed; the in-flight request then
   completes. Latency is send-to-reply at the client. *)
let closed_loop (w : Workload.t) conns ~seed ~seconds expected =
  let t0 = wall () in
  let t_end = t0 +. seconds in
  let evals =
    Array.map (fun t -> Workload.eval w t ~seed:Workload.base_seed) w.templates
  in
  let worker c conn () =
    let st = Workload.stream w ~seed c in
    let recs = ref [] in
    let id = ref 0 in
    while wall () < t_end do
      let i, rseed = Workload.next w st in
      incr id;
      let line = request_line ~id:!id { (evals.(i)) with P.seed = rseed } in
      let s0 = wall () in
      let reply =
        match rpc conn line with
        | json -> Result.map (fun r -> r.P.result) (P.reply_of_json json)
        | exception (End_of_file | Sys_error _ | Unix.Unix_error _ | Failure _) ->
            Error "connection lost"
      in
      let done_at = wall () in
      let outcome, stats, anytime, shards =
        match reply with
        | Error msg -> (Failed msg, None, None, None)
        | Ok (P.Answer a as body) ->
            (check_answer w expected.(i) body, Some a.stats, a.anytime, a.shards)
        | Ok body -> (check_answer w expected.(i) body, None, None, None)
      in
      recs :=
        { tpl = i; latency = done_at -. s0; done_at; outcome; stats; anytime; shards }
        :: !recs
    done;
    !recs
  in
  let results = Array.make (Array.length conns) [] in
  let threads =
    Array.mapi
      (fun c conn -> Thread.create (fun () -> results.(c) <- worker c conn ()) ())
      conns
  in
  Array.iter Thread.join threads;
  (List.concat (Array.to_list results), t0)

(* On a shared host the CPU speed can drop in bursts of about a second,
   so each timed figure is a median over blocks of consecutive correct
   replies: a burst inside one block moves it little. *)
let blocks = 10

let by_completion records =
  let a = Array.of_list (List.filter (fun r -> r.outcome = Correct) records) in
  Array.sort (fun x y -> compare x.done_at y.done_at) a;
  a

(* The [k] blocks of [a], as index ranges [(i, j)]. *)
let block_ranges a k =
  let n = Array.length a in
  List.init k (fun b -> (n * b / k, n * (b + 1) / k))

(* Correct replies per second: the median of the blocks' rates. *)
let throughput records ~t0 =
  let a = by_completion records in
  let n = Array.length a in
  if n < blocks then ratio (fi n) (if n = 0 then 0. else a.(n - 1).done_at -. t0)
  else
    let at i = if i = 0 then t0 else a.(i - 1).done_at in
    median (List.map (fun (i, j) -> fi (j - i) /. (at j -. at i)) (block_ranges a blocks))

(* Blocks hold at least this many replies, so that the tail quantile of
   every block keeps at least ten samples beyond it. *)
let min_block = 100

(* Latency quantile [q] in seconds: the median of the blocks' quantiles,
   over up to ten blocks. *)
let latency_quantile records q =
  let a = by_completion records in
  let k = max 1 (min blocks (Array.length a / min_block)) in
  median
    (List.map
       (fun (i, j) ->
         quantile (sorted_of_list (List.init (j - i) (fun x -> a.(i + x).latency))) q)
       (block_ranges a k))

(* ------------------------------------------------------------------ *)
(* Server-side counters over the wire                                  *)
(* ------------------------------------------------------------------ *)

let metrics_snapshot c =
  let json = rpc c (J.to_string (P.request_to_json { P.id = None; op = P.Metrics })) in
  match P.reply_of_json json with
  | Ok { P.result = P.Metrics_snapshot s; _ } -> s
  | _ -> failwith "metrics op failed"

let hist_field snap name field =
  let ( >>= ) = Option.bind in
  Option.value ~default:0
    (J.member "histograms" snap >>= J.member name >>= J.member field >>= J.to_int)

(* (count, sum) of a server histogram accumulated between two snapshots. *)
let hist_delta before after name =
  ( hist_field after name "count" - hist_field before name "count",
    hist_field after name "sum" - hist_field before name "sum" )

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  fi kb /. 1024.)
            else go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

(* ------------------------------------------------------------------ *)
(* The traced run                                                      *)
(* ------------------------------------------------------------------ *)

type traced = {
  tr : Trace.t;
  n_requests : int;
  wrong : int;
  compile_s : float list;
  bound_s : float list;
  solve_s : float list;
  total_s : float list;
  dp_states : float list;
  solver_calls : float list;
  draws : int;
  sample_s : float;
  labels : int;
}

(* Replay one request line through the public calls the server makes,
   in the server's order: decode, (parse and plan), evaluate, encode.
   The protocol decoder already parses ["q"] text; [lang.parse] parses it
   again on its own so the parser's time is visible. *)
let replay tr ~req engine registry line =
  Trace.with_span tr ~req "request" @@ fun () ->
  let span name f = Trace.with_span tr ~req name f in
  let id, e =
    span "server.decode" (fun () ->
        match J.of_string line with
        | Error msg -> failwith msg
        | Ok j -> (
            match P.request_of_json j with
            | Ok { P.id; op = P.Eval e } -> (id, e)
            | Ok _ -> failwith "not an eval request"
            | Error err -> failwith err.P.message))
  in
  let db =
    match Server.Registry.find registry e.P.dataset with
    | Ok db -> db
    | Error err -> failwith err.P.message
  in
  let slo = P.slo_of_eval e in
  let request =
    match e.P.query with
    | P.Cq q ->
        Engine.Request.make ~task:e.P.task ~solver:e.P.solver ~budget:e.P.budget
          ~seed:e.P.seed ~parallelism:`Intra ?slo db q
    | P.Lang { text; _ } ->
        let ast = span "lang.parse" (fun () -> Lang.Parser.parse_exn text) in
        let hint =
          if e.P.solver = Hardq.Solver.default_exact then None else Some e.P.solver
        in
        let plan = span "plan.compile" (fun () -> Plan.compile ?hint db ast) in
        Engine.Request.of_plan ~task:e.P.task ~budget:e.P.budget ~seed:e.P.seed
          ~parallelism:`Intra ?slo plan
  in
  let t_eval = wall () in
  let resp, anytime =
    span "engine" (fun () ->
        match slo with
        | Some _ ->
            let on_frame f =
              span "server.encode" (fun () ->
                  ignore (J.to_string (P.progress_to_json (P.progress_of_frame ?id f))))
            in
            let served = Engine.serve engine ~on_frame request in
            let any = Option.bind served.Engine.anytime P.anytime_of_engine in
            (served.Engine.response, any)
        | None -> (
            match (Engine.eval_batch engine [| request |]).(0) with
            | Ok r -> (r, None)
            | Error exn -> raise exn))
  in
  let server_s = wall () -. t_eval in
  let reply =
    span "server.encode" (fun () ->
        let stats = P.stats_of_response ~queue_s:0. ~server_s resp in
        let result =
          P.Answer
            {
              answer = P.answer_of_response resp;
              per_session = None;
              stats;
              anytime;
              shards = P.shards_of_response resp;
            }
        in
        J.to_string (P.reply_to_json { P.reply_id = id; result }))
  in
  (resp, anytime, reply)

let engine_config (w : Workload.t) =
  let cfg = server_config w "" in
  Engine.Config.(
    default |> with_jobs jobs
    |> with_answer_capacity cfg.Server.cache_capacity
    |> with_term_capacity cfg.Server.term_cache_capacity
    |> with_batch_window (cfg.Server.batch_window_ms /. 1000.)
    |> with_batch_max cfg.Server.batch_max
    |> with_shards cfg.Server.shards)

let traced_run (w : Workload.t) ~seed ~budget_s ~max_requests expected =
  let registry = Server.Registry.create () in
  Engine.with_engine (engine_config w) @@ fun engine ->
  let scratch = Trace.create () in
  let one tr ~req (t : Workload.template) ~seed =
    replay tr ~req engine registry (request_line (Workload.eval w t ~seed))
  in
  (* The same warm-up as the server got. *)
  ignore
    (warm_up w (fun t ->
         let resp, _, _ = one scratch ~req:0 t ~seed:Workload.base_seed in
         resp.Engine.Response.stats.Engine.Response.cache_misses));
  let tr = Trace.create () in
  let streams = Array.init (connections w) (fun c -> Workload.stream w ~seed c) in
  let t0 = wall () in
  let rec loop i acc =
    if i >= max_requests || (i > 0 && wall () -. t0 > budget_s) then (i, acc)
    else
      let k, rseed = Workload.next w streams.(i mod connections w) in
      let resp, anytime, reply = one tr ~req:i w.templates.(k) ~seed:rseed in
      let ok =
        match J.of_string reply with
        | Ok j -> (
            match P.reply_of_json j with
            | Ok r -> check_answer w expected.(k) r.P.result = Correct
            | Error _ -> false)
        | Error _ -> false
      in
      loop (i + 1) ((resp, anytime, ok) :: acc)
  in
  let n, results = loop 0 [] in
  let stats = List.map (fun (r, _, _) -> r.Engine.Response.stats) results in
  let f proj = List.map proj stats in
  let open Engine.Response in
  {
    tr;
    n_requests = n;
    wrong = List.length (List.filter (fun (_, _, ok) -> not ok) results);
    compile_s = f (fun s -> s.compile_s);
    bound_s = f (fun s -> s.bound_s);
    solve_s = f (fun s -> s.solve_s);
    total_s = f (fun s -> s.total_s);
    dp_states = f (fun s -> fi (Obs.count s.metrics "dp.flat.states"));
    solver_calls = f (fun s -> fi s.solver_calls);
    draws =
      List.fold_left
        (fun acc (_, a, _) -> match a with Some a -> acc + a.P.any_draws | None -> acc)
        0 results;
    sample_s =
      List.fold_left
        (fun acc (r, a, _) -> if a = None then acc else acc +. r.stats.solve_s)
        0. results;
    labels =
      (match Server.Registry.find registry (Workload.spec w) with
      | Ok db -> List.length (Prefs.Labeling.all_labels (Ppd.Database.labeling db))
      | Error _ -> 0);
  }

(* Mean self time per replayed request of the spans named [name]. *)
let span_self_mean traced name =
  let total =
    List.fold_left
      (fun acc ((s : Trace.span), self) -> if s.name = name then acc +. self else acc)
      0. (Trace.self_times traced.tr)
  in
  ratio total (fi traced.n_requests)

let request_walls traced =
  List.filter_map
    (fun (s : Trace.span) -> if s.parent < 0 then Some (Trace.duration s) else None)
    (Trace.spans traced.tr)

(* ------------------------------------------------------------------ *)
(* One benchmark run                                                   *)
(* ------------------------------------------------------------------ *)

let git_commit () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown (not a git checkout)"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] ->
          Option.value ~default:("unresolved " ^ r) (read (Filename.concat ".git" r))
      | _ -> head)

(* What the timed phase and the set-ups saw. *)
type measured = {
  records : record list;
  t0 : float;  (** start of the timed phase *)
  elapsed : float;  (** its wall seconds, in-flight completions included *)
  setups : (float * int) list;  (** seconds and warm-up passes per set-up *)
  rss_mb : float;
  snap0 : J.t;
  snap1 : J.t;  (** server metrics before and after the timed phase *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  cpu_s : float;  (** process CPU seconds in the timed phase *)
  steal_pct : float option;
      (** share of the host's CPU time the hypervisor took in the timed
          phase, when /proc/stat tells *)
}

(* The host's CPU time counters (the "cpu" line of /proc/stat). *)
let host_cpu () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> None
  | None -> None
  | Some line -> (
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "cpu" :: fields -> (
          try Some (Array.of_list (List.map float_of_string fields))
          with Failure _ -> None)
      | _ -> None)

(* Steal (the eighth counter) as a percentage of all time between two
   readings. Steal is time the hypervisor ran someone else on this
   machine's virtual CPUs; it is what moves latency tails on a shared
   host. *)
let steal_pct before after =
  match (before, after) with
  | Some a, Some b when Array.length a >= 8 && Array.length b = Array.length a ->
      let d = Array.mapi (fun i x -> x -. a.(i)) b in
      let total = Array.fold_left ( +. ) 0. d in
      if total > 0. then Some (100. *. d.(7) /. total) else None
  | _ -> None

(* The timed phase runs on the first set-up, so the memory high-water
   mark covers one server. The remaining set-ups only time set-up again
   and are torn down at once; set-up time is the median over all. *)
let measure (w : Workload.t) ~setups ~seed ~seconds expected =
  let sock i = Printf.sprintf "%s/%d-%d.sock" out_dir (Unix.getpid ()) i in
  let live = setup w (sock 0) in
  let snap0 = metrics_snapshot live.conns.(0) in
  let gc0 = Gc.quick_stat () and tm0 = Unix.times () and cpu0 = host_cpu () in
  let records, t0 = closed_loop w live.conns ~seed ~seconds expected in
  let elapsed = wall () -. t0 in
  let tm1 = Unix.times () and gc1 = Gc.quick_stat () and cpu1 = host_cpu () in
  let snap1 = metrics_snapshot live.conns.(0) in
  let rss_mb = peak_rss_mb () in
  teardown live;
  let again i =
    let l = setup w (sock i) in
    teardown l;
    (l.setup_s, l.passes)
  in
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  {
    records;
    t0;
    elapsed;
    setups = (live.setup_s, live.passes) :: List.init (setups - 1) (fun i -> again (i + 1));
    rss_mb;
    snap0;
    snap1;
    gc0;
    gc1;
    cpu_s = cpu tm1 -. cpu tm0;
    steal_pct = steal_pct cpu0 cpu1;
  }

let correct_latencies records =
  sorted_of_list
    (List.filter_map
       (fun r -> if r.outcome = Correct then Some r.latency else None)
       records)

let n_correct m = List.length (List.filter (fun r -> r.outcome = Correct) m.records)

(* Sum of a per-reply counter over the timed phase. *)
let reply_sum m proj =
  let add acc r = match r.stats with Some s -> acc + proj s | None -> acc in
  fi (List.fold_left add 0 m.records)

let cache_sum m proj =
  reply_sum m (fun s -> match s.P.cache with Some c -> proj c | None -> 0)

(* Why a run is not correct: wrong, failed or shed replies, a broken
   cache premise, or wrong answers in the traced run. *)
let problems (w : Workload.t) m traced =
  let out = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  List.iter
    (fun r ->
      let name = w.templates.(r.tpl).name in
      match r.outcome with
      | Correct -> ()
      | Wrong msg -> problem "%s: wrong answer: %s" name msg
      | Failed msg -> problem "%s: failed: %s" name msg
      | Shed -> problem "%s: shed" name)
    m.records;
  let hits = cache_sum m (fun c -> c.P.answer_hits)
  and misses = cache_sum m (fun c -> c.P.answer_misses) in
  (match w.check with
  | Workload.Ci _ -> ()
  | Workload.Exact when w.cache_capacity > 0 ->
      if misses > 0. then problem "warm timed phase saw %.0f answer-tier misses" misses
  | Workload.Exact | Workload.Sharded_exact ->
      if hits > 0. then problem "cold timed phase saw %.0f answer-tier hits" hits);
  if m.records = [] then problem "no request completed";
  Option.iter
    (fun t -> if t.wrong > 0 then problem "traced run: %d wrong answers" t.wrong)
    traced;
  List.rev !out

let end_to_end_values m =
  [
    ("setup_s", median (List.map fst m.setups));
    ("throughput_qps", throughput m.records ~t0:m.t0);
    ("latency_p50_ms", latency_quantile m.records 0.5 *. 1e3);
    ("latency_tail_ms", latency_quantile m.records tail_q *. 1e3);
    ("peak_rss_mb", m.rss_mb);
    ("ok_frac", ratio (fi (n_correct m)) (fi (List.length m.records)));
  ]

let layer_values (w : Workload.t) m t =
  let n = fi (List.length m.records) in
  let hits = cache_sum m (fun c -> c.P.answer_hits)
  and misses = cache_sum m (fun c -> c.P.answer_misses)
  and joins = cache_sum m (fun c -> c.P.sf_joins)
  and t_hits = cache_sum m (fun c -> c.P.term_hits)
  and t_misses = cache_sum m (fun c -> c.P.term_misses) in
  let topk =
    List.filter_map
      (fun r ->
        match (r.shards, w.templates.(r.tpl).task) with
        | Some b, Engine.Request.Top_k _ -> Some b
        | _ -> None)
      m.records
  in
  let pruned = fi (List.fold_left (fun a b -> a + b.P.sh_pruned) 0 topk)
  and deep = fi (List.fold_left (fun a b -> a + b.P.sh_deep) 0 topk) in
  let any_mean proj =
    mean (List.filter_map (fun r -> Option.map (fun a -> fi (proj a)) r.anytime) m.records)
  in
  let q_count, q_sum = hist_delta m.snap0 m.snap1 "server.queue_us" in
  let b_count, b_sum = hist_delta m.snap0 m.snap1 "server.batch.jobs" in
  let words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words in
  let majors = m.gc1.major_collections - m.gc0.major_collections in
  let ms l = mean l *. 1e3 in
  let trace_ms = median (request_walls t) *. 1e3 in
  [
    ("server.decode_us", span_self_mean t "server.decode" *. 1e6);
    ("server.encode_us", span_self_mean t "server.encode" *. 1e6);
    ("server.queue_wait_ms", ratio (fi q_sum) (fi q_count) /. 1e3);
    ("server.batch_size_mean", ratio (fi b_sum) (fi b_count));
    ("lang.parse_us", span_self_mean t "lang.parse" *. 1e6);
    ("plan.compile_us", span_self_mean t "plan.compile" *. 1e6);
    ("ppd.compile_ms", ms t.compile_s);
    ("ppd.labels_interned", fi t.labels);
    (* The engine's solve_s already covers grouping, store claims and
       aggregation (total = compile + bound + solve exactly), so the
       engine overhead visible from outside is the engine call's self
       time beyond its own total_s. *)
    ("engine.overhead_ms", (span_self_mean t "engine" *. 1e3) -. ms t.total_s);
    ("engine.answer_hit_rate", ratio hits (hits +. misses +. joins));
    ("engine.term_hit_rate", ratio t_hits (t_hits +. t_misses));
    ("engine.sf_join_rate", ratio joins (hits +. misses +. joins));
    ( "engine.distinct_per_session",
      ratio (reply_sum m (fun s -> s.P.distinct)) (reply_sum m (fun s -> s.P.sessions)) );
    ("core.solve_ms", ms t.solve_s);
    ("core.bound_ms", ms t.bound_s);
    ("core.dp_states_per_req", mean t.dp_states);
    ("core.solver_calls_per_req", mean t.solver_calls);
    ("core.anytime_rounds", any_mean (fun a -> a.P.any_rounds));
    ("core.anytime_draws", any_mean (fun a -> a.P.any_draws));
    ("core.draws_per_s", ratio (fi t.draws) t.sample_s);
    ("shard.prune_rate", ratio pruned (pruned +. deep));
    ("shard.deep_per_topk", ratio deep (fi (List.length topk)));
    ("proc.cpu_util", m.cpu_s /. m.elapsed);
    ("proc.alloc_mb_per_req", ratio ((words m.gc1 -. words m.gc0) *. 8. /. 1e6) n);
    ("proc.major_gcs_per_req", ratio (fi majors) n);
    ("trace.request_ms", trace_ms);
    ("trace.overhead_ms", trace_ms -. (latency_quantile m.records 0.5 *. 1e3));
  ]

(* The lines printed before the result: provenance, a run summary, and
   request count and median latency per template. *)
let info_lines (w : Workload.t) m traced ~seed ~seconds ~trace =
  let lat = correct_latencies m.records in
  let n_lat = Array.length lat in
  let n_blocks = max 1 (min blocks (n_lat / min_block)) in
  let block = n_lat / n_blocks in
  let template i (t : Workload.template) =
    let mine = List.filter (fun r -> r.tpl = i) m.records in
    J.Obj
      [
        ("name", J.String t.name);
        ("count", J.Int (List.length mine));
        ("median_ms", J.Float (quantile (correct_latencies mine) 0.5 *. 1e3));
      ]
  in
  let percentiles of_q =
    J.Obj
      (List.map
         (fun q -> (Printf.sprintf "p%g" (q *. 100.), J.Float (of_q q *. 1e3)))
         [ 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ])
  in
  let n = List.length m.records in
  let traced_requests = match traced with Some t -> t.n_requests | None -> 0 in
  [
    ( "provenance",
      J.Obj
        [
          ("workload", J.String w.name);
          ("seed", J.Int seed);
          ("seconds", J.Float seconds);
          ("trace", J.Bool trace);
          ("nproc", J.Int nproc);
          ("git_commit", J.String (git_commit ()));
          ("ocaml", J.String Sys.ocaml_version);
          ( "dataset",
            J.Obj
              [
                ("name", J.String "polls");
                ("m", J.Int w.size);
                ("sessions", J.Int w.sessions);
                ("seed", J.Int Workload.dataset_seed);
              ] );
          ("connections", J.Int (connections w));
          ("setups", J.Int (List.length m.setups));
          ("server", config_json (server_config w ""));
        ] );
    ( "summary",
      J.Obj
        [
          ("attempted", J.Int n);
          ("correct", J.Int (n_correct m));
          ("error_frac", J.Float (ratio (fi (n - n_correct m)) (fi n)));
          ("answer_hits", J.Float (cache_sum m (fun c -> c.P.answer_hits)));
          ("answer_misses", J.Float (cache_sum m (fun c -> c.P.answer_misses)));
          ("latency_ms_all_replies", percentiles (quantile lat));
          ("latency_ms_block_median", percentiles (latency_quantile m.records));
          ("tail_percentile", J.Float (tail_q *. 100.));
          ("latency_blocks", J.Int n_blocks);
          ("block_samples", J.Int block);
          ("block_beyond_tail", J.Int (block - int_of_float (Float.ceil (tail_q *. fi block))));
          ("setup_s_each", J.List (List.map (fun (s, _) -> J.Float s) m.setups));
          ("warm_up_passes", J.List (List.map (fun (_, p) -> J.Int p) m.setups));
          ("traced_requests", J.Int traced_requests);
          ( "host_steal_pct",
            match m.steal_pct with Some p -> J.Float p | None -> J.Null );
          ( "end_to_end",
            J.Obj (List.map (fun (k, v) -> (k, J.Float v)) (end_to_end_values m)) );
        ] );
    ("templates", J.List (Array.to_list (Array.mapi template w.templates)));
  ]

type run = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;  (** empty unless traced *)
  problems : string list;  (** why [correct] is false *)
  info : (string * J.t) list;
  traced : traced option;
}

let run_workload ?(setups = 9) ?(corrupt_reference = false) ?(trace_budget_s = 5.)
    (w : Workload.t) ~seed ~seconds ~trace =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  (* References are computed once, outside every timed window. *)
  let ref_db =
    Datasets.Polls.generate ~n_candidates:w.size ~n_voters:w.sessions
      ~seed:Workload.dataset_seed ()
  in
  let expected =
    Array.map (fun (t : Workload.template) -> reference ref_db t.reference) w.templates
  in
  let expected = if corrupt_reference then Array.map corrupt expected else expected in
  let m = measure w ~setups ~seed ~seconds expected in
  let traced =
    if trace then
      Some (traced_run w ~seed ~budget_s:trace_budget_s ~max_requests:2000 expected)
    else None
  in
  Option.iter
    (fun t -> Trace.write t.tr (Printf.sprintf "%s/trace-%s-%d.jsonl" out_dir w.name seed))
    traced;
  let problems = problems w m traced in
  let n = List.length m.records in
  {
    correct = problems = [];
    attempted = n;
    failed = n - n_correct m;
    e2e = end_to_end_values m;
    layers = (match traced with Some t -> layer_values w m t | None -> []);
    problems;
    info = info_lines w m traced ~seed ~seconds ~trace;
    traced;
  }

let result_json run ~trace =
  let table, values = if trace then (per_layer, run.layers) else (end_to_end, run.e2e) in
  let metric m =
    ( m.name,
      J.Obj [ ("value", J.Float (List.assoc m.name values)); ("unit", J.String m.unit) ] )
  in
  J.Obj
    [
      ("correct", J.Bool run.correct);
      ("attempted", J.Int run.attempted);
      ("failed", J.Int run.failed);
      ("metrics", J.Obj (List.map metric table));
    ]

(* ------------------------------------------------------------------ *)
(* Harness self-test at tiny scale                                     *)
(* ------------------------------------------------------------------ *)

let tiny (w : Workload.t) = { w with size = 9; sessions = 12 }
let str key j = Option.value ~default:"" (Option.bind (J.member key j) J.to_string_opt)
let list key j = Option.value ~default:[] (Option.bind (J.member key j) J.to_list)

(* The benchmark manifest must name the same workloads, and the same
   metrics with the same units, as this harness. *)
let manifest_problems () =
  match In_channel.with_open_text "BENCHMARK.json" In_channel.input_all with
  | exception Sys_error _ -> [ "BENCHMARK.json not found in the current directory" ]
  | text -> (
      match J.of_string text with
      | Error msg -> [ "BENCHMARK.json: " ^ msg ]
      | Ok j ->
          let section key table =
            let entry e = (str "name" e, str "unit" e, str "better" e) in
            let listed = List.map entry (list key j) in
            if listed = List.map (fun m -> (m.name, m.unit, m.better)) table then []
            else [ "BENCHMARK.json " ^ key ^ " differs from the harness tables" ]
          in
          let workloads = List.map (str "name") (list "workloads" j) in
          section "end_to_end" end_to_end
          @ section "per_layer" per_layer
          @
          if workloads = List.map (fun (w : Workload.t) -> w.name) Workload.gated then []
          else [ "BENCHMARK.json workloads differ" ])

let self_test () =
  let failures = ref (manifest_problems ()) in
  let expect cond fmt =
    Printf.ksprintf (fun s -> if not cond then failures := s :: !failures) fmt
  in
  List.iter
    (fun (w : Workload.t) ->
      let w = tiny w in
      let r =
        run_workload ~setups:1 ~trace_budget_s:0.3 w ~seed:1 ~seconds:0.3 ~trace:true
      in
      expect r.correct "%s: run not correct: %s" w.name (String.concat "; " r.problems);
      (* Every metric is computed, and printed by name with its unit. *)
      List.iter
        (fun (trace, table, values) ->
          expect
            (List.map fst values = List.map (fun m -> m.name) table)
            "%s: computed metrics differ from the table" w.name;
          match J.of_string (J.to_string (result_json r ~trace)) with
          | exception Not_found -> expect false "%s: a metric has no value" w.name
          | Error msg -> expect false "%s: result line does not parse: %s" w.name msg
          | Ok j ->
              List.iter
                (fun m ->
                  let entry = Option.bind (J.member "metrics" j) (J.member m.name) in
                  let value = Option.bind entry (J.member "value") in
                  expect
                    (Option.map (str "unit") entry = Some m.unit
                    && Option.bind value J.to_float <> None)
                    "%s: metric %s missing or without unit %s" w.name m.name m.unit)
                table)
        [ (false, end_to_end, r.e2e); (true, per_layer, r.layers) ];
      match r.traced with
      | None -> expect false "%s: no traced run" w.name
      | Some t ->
          expect (t.n_requests > 0) "%s: traced run replayed nothing" w.name;
          (* Spans nest, and self times sum to each request's wall time. *)
          List.iter (fun p -> expect false "%s: trace: %s" w.name p) (Trace.check t.tr);
          let names = List.map (fun (s : Trace.span) -> s.name) (Trace.spans t.tr) in
          List.iter
            (fun n -> expect (List.mem n names) "%s: no %s span" w.name n)
            [ "request"; "server.decode"; "engine"; "server.encode" ])
    Workload.all;
  (* A deliberately corrupted reference must count as failed operations. *)
  (match Workload.find "cold-exact" with
  | None -> expect false "cold-exact workload missing"
  | Some w ->
      let r =
        run_workload ~setups:1 ~corrupt_reference:true (tiny w) ~seed:1 ~seconds:0.3
          ~trace:false
      in
      expect (not r.correct) "corrupted reference: run still correct";
      expect
        (r.attempted > 0 && r.failed = r.attempted)
        "corrupted reference: %d of %d operations failed" r.failed r.attempted);
  match List.rev !failures with
  | [] ->
      print_endline "perfbench self-test: ok";
      0
  | fs ->
      List.iter (fun f -> prerr_endline ("perfbench self-test: " ^ f)) fs;
      1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    ("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
     \       perfbench --self-test\n\
      workloads: "
    ^ String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
  exit 2

(* A run must end within 180 s whatever happens to the server under test. *)
let watchdog_s = 170.

let () =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay watchdog_s;
         prerr_endline "perfbench: run exceeded its time limit";
         exit 3)
       ());
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "--self-test" ] then exit (self_test ());
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := Workload.find v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | _ -> usage ()
  in
  parse args;
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seconds > 0. ->
      let run = run_workload w ~seed ~seconds ~trace in
      List.iter (fun (k, v) -> print_endline (J.to_string (J.Obj [ (k, v) ]))) run.info;
      List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) run.problems;
      print_endline (J.to_string (result_json run ~trace));
      exit (if run.correct then 0 else 1)
  | _ -> usage ()

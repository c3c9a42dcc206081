(* The concurrent query server. See server.mli for the threading model. *)

(* Re-export the subsystem's modules: [server] is both the library's
   wrapping module and the server proper. *)
module Json = Json
module Protocol = Protocol
module Registry = Registry
module Bqueue = Bqueue
module Client = Client

type config = {
  address : Protocol.address;
  jobs : int option;
  cache_capacity : int;
  term_cache_capacity : int;
  queue_capacity : int;
  workers : int;
  max_connections : int;
  default_timeout_ms : float option;
  max_request_bytes : int;
  metrics_path : string option;
  preload : Protocol.dataset_spec list;
  quiet : bool;
  intra : bool;
      (* read by perfbench's run header only; there is one parallelism
         mode *)
  batch_window_ms : float;
      (* gather window of the batch scheduler; <= 0 dispatches every
         admitted request as its own batch immediately *)
  batch_max : int; (* largest request group one batch may carry *)
  kernel : Hardq.Kernel.t;
      (* read by perfbench's run header only; there is one DP layout *)
  shards : int;
      (* session partition count; > 1 partitions classic-query
         sessions on the engine's pool — replies gain the additive
         "shards" accounting block, answers stay bit-identical to the
         unsharded server *)
}

let default_config address =
  {
    address;
    jobs = None;
    cache_capacity = 8192;
    term_cache_capacity = 4096;
    queue_capacity = 64;
    workers = 2;
    max_connections = 1024;
    default_timeout_ms = None;
    max_request_bytes = 1 lsl 20;
    metrics_path = None;
    preload = [];
    quiet = true;
    intra = true;
    batch_window_ms = 2.;
    batch_max = 16;
    kernel = Hardq.Kernel.Flat;
    shards = 1;
  }

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let c_accepted = Obs.counter "server.connections.accepted"
let c_refused = Obs.counter "server.connections.refused"
let c_active = Obs.counter "server.connections.active" (* gauge *)
let c_requests = Obs.counter "server.requests"
let c_admitted = Obs.counter "server.requests.admitted"
let c_shed = Obs.counter "server.requests.shed"
let c_ok = Obs.counter "server.replies.ok"
let c_err = Obs.counter "server.replies.error"
let c_deadline = Obs.counter "server.deadline_exceeded"
let c_depth = Obs.counter "server.queue.depth" (* gauge *)
let c_write_errors = Obs.counter "server.write_errors"
let c_batches = Obs.counter "server.batches"
let c_direct = Obs.counter "server.batch.direct" (* flushed early: lone connection *)
let h_batch_jobs = Obs.histogram "server.batch.jobs"
let h_queue_us = Obs.histogram "server.queue_us"
let h_eval_us = Obs.histogram "server.eval_us"
let h_total_us = Obs.histogram "server.total_us"

let us_of_s s = int_of_float (s *. 1e6)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Read-side buffering lives in the conn (reader-thread-only fields):
   requests are read with [Unix.read] into [rchunk] and accumulated into
   [racc], so an unterminated line is bounded by [max_request_bytes]
   instead of whatever [input_line] would swallow. *)
let read_chunk_bytes = 8192

type conn = {
  cid : int;
  fd : Unix.file_descr;
  wm : Mutex.t; (* serializes reply lines on this socket *)
  cm : Mutex.t; (* guards [refs] *)
  mutable refs : int; (* reader thread + queued/in-flight jobs *)
  rchunk : Bytes.t;
  mutable rpos : int;
  mutable rlen : int;
  racc : Buffer.t;
  mutable eof : bool;
      (* peer half-closed (or the reader died): queued non-streaming
         jobs still get their replies (the write side may be open), but
         anytime sampling loops poll this and stop wasting draws on a
         client that can no longer send — see [serve_job] *)
}

(* A job can outlive its reader thread: a client that pipelines evals
   and then shuts down its write side triggers EOF while its requests
   are still queued. The descriptor must stay open until their replies
   are written — otherwise the fd number can be reused by a newly
   accepted connection and a stale reply lands on the wrong client — so
   it is closed by whoever drops the last reference. *)
let conn_retain conn =
  Mutex.lock conn.cm;
  conn.refs <- conn.refs + 1;
  Mutex.unlock conn.cm

let conn_release conn =
  Mutex.lock conn.cm;
  conn.refs <- conn.refs - 1;
  let last = conn.refs = 0 in
  Mutex.unlock conn.cm;
  if last then try Unix.close conn.fd with Unix.Unix_error _ -> ()

type job = {
  eval : Protocol.eval;
  req_id : Json.t option;
  conn : conn;
  enqueued_at : float;
  deadline : float option; (* absolute, Unix.gettimeofday clock *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound : Protocol.address;
  engine : Engine.t; (* thread-safe: workers eval concurrently *)
  registry : Registry.t;
  queue : job Bqueue.t; (* admission: readers -> batch scheduler *)
  batches : job list Bqueue.t; (* gathered: batch scheduler -> workers *)
  backlog : int Atomic.t;
      (* jobs admitted but not yet picked up by a worker — admission
         queue + open buckets + batch queue. The shed knee: admission
         refuses when it reaches [queue_capacity], preserving the
         pre-scheduler "queue full" semantics even though the scheduler
         drains the admission queue eagerly. *)
  draining : bool Atomic.t;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  mutable accept_thread : Thread.t option;
  mutable dispatch_thread : Thread.t option;
  mutable worker_threads : Thread.t list;
  conns : (int, conn) Hashtbl.t;
  conns_m : Mutex.t;
  conns_cv : Condition.t; (* signalled when a connection unregisters *)
  mutable next_cid : int;
}

let log t fmt =
  if t.cfg.quiet then Printf.ifprintf stderr fmt
  else Printf.fprintf stderr ("hardq-server: " ^^ fmt ^^ "\n%!")

let now () = Unix.gettimeofday ()

(* Blocking write of a whole reply line; [Unix.write] handles short
   writes via the loop. Raises [Unix.Unix_error] on a dead peer. *)
let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let send_reply conn (reply : Protocol.reply) =
  let line = Json.to_string (Protocol.reply_to_json reply) ^ "\n" in
  (match reply.Protocol.result with
  | Protocol.Err _ -> Obs.Counter.incr c_err
  | _ -> Obs.Counter.incr c_ok);
  Mutex.lock conn.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wm)
    (fun () ->
      try write_all conn.fd line
      with Unix.Unix_error _ | Sys_error _ -> Obs.Counter.incr c_write_errors)

let send_error conn req_id code message =
  send_reply conn
    {
      Protocol.reply_id = req_id;
      result = Protocol.Err (Protocol.error code message);
    }

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)
(* ------------------------------------------------------------------ *)

(* Map the remaining wall time onto the engine's CPU-budget mechanism:
   budgets are measured on process CPU time, which aggregates across the
   pool's domains, so [remaining * jobs] caps a solver invocation at
   roughly the request's remaining wall allowance. The tighter of that and the
   request's own budget wins; remembering which one was tighter picks the
   error code when the timer fires. *)
let effective_budget t (e : Protocol.eval) deadline start =
  match deadline with
  | None -> (e.Protocol.budget, false)
  | Some dl ->
      let rem_cpu = (dl -. start) *. float_of_int (Engine.jobs t.engine) in
      if e.Protocol.budget > 0. && e.Protocol.budget <= rem_cpu then
        (e.Protocol.budget, false)
      else (rem_cpu, true)

(* Build the engine request for one job (or the typed error reply when
   the dataset cannot be resolved or the query not compiled). *)
let prepare t (job : job) start =
  let e = job.eval in
  let budget, deadline_limited = effective_budget t e job.deadline start in
  match Registry.request t.registry ~budget ?deadline:job.deadline e with
  | Ok req -> Ok (req, deadline_limited)
  | Error err -> Error (Protocol.Err err)

(* Map one engine result for [job] onto the wire reply. [anytime] is the
   wire block of an SLO-carrying serve; plain evaluations omit it. *)
let finish ?anytime (job : job) start deadline_limited
    (result : (Engine.Response.t, exn) result) =
  let e = job.eval in
  match result with
  | Ok resp ->
      let fin = now () in
      Obs.Histogram.observe h_eval_us (us_of_s (fin -. start));
      let stats =
        Protocol.stats_of_response
          ~queue_s:(start -. job.enqueued_at)
          ~server_s:(fin -. start) resp
      in
      let per_session =
        if e.Protocol.per_session then
          Some
            (List.map
               (fun (s, p) -> (Protocol.key_of_session s, p))
               resp.Engine.Response.per_session)
        else None
      in
      Protocol.Answer
        {
          answer = Protocol.answer_of_response resp;
          per_session;
          stats;
          anytime;
          shards = Protocol.shards_of_response resp;
        }
  | Error Util.Timer.Out_of_time ->
      (* Either the deadline-derived CPU cap or the engine's wall-clock
         guard fired; a genuinely-expired deadline wins the diagnosis
         even when the request also carried its own (tighter) budget. *)
      let deadline_limited =
        deadline_limited
        || (match job.deadline with
           | Some dl -> Util.Timer.wall () >= dl
           | None -> false)
      in
      if deadline_limited then begin
        Obs.Counter.incr c_deadline;
        Protocol.Err
          (Protocol.error Protocol.Deadline_exceeded
             "deadline expired during evaluation")
      end
      else
        Protocol.Err
          (Protocol.error Protocol.Budget_exhausted
             "CPU budget exhausted; raise \"budget\" or pick a cheaper solver")
  | Error (Hardq.Dp_table.State_explosion { table; cap }) ->
      (* The DP state cap is a memory budget: typed like the CPU one. *)
      Protocol.Err
        (Protocol.error Protocol.Budget_exhausted
           (Printf.sprintf
              "%s passed its cap of %d DP states; pick a cheaper solver" table
              cap))
  | Error Engine.Stopped ->
      Protocol.Err (Protocol.error Protocol.Shutting_down "server is draining")
  | Error exn ->
      Protocol.Err (Protocol.error Protocol.Internal (Printexc.to_string exn))

(* Serve one SLO-carrying job on the calling worker thread. Progress
   frames go out only when the request opted into streaming; a frame
   write failing (dead peer) or the reader reporting EOF (half-close)
   cancels sampling between rounds instead of burning draws for a client
   that can no longer be answered usefully — [`Cancelled] sends nothing.
   Returns [None] when no terminal reply should be written. *)
let serve_job t (job : job) start deadline_limited req =
  let e = job.eval in
  let write_failed = ref false in
  let on_frame frame =
    if e.Protocol.stream && not !write_failed then begin
      let p = Protocol.progress_of_frame ?id:job.req_id frame in
      let line = Json.to_string (Protocol.progress_to_json p) ^ "\n" in
      Mutex.lock job.conn.wm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock job.conn.wm)
        (fun () ->
          try write_all job.conn.fd line
          with Unix.Unix_error _ | Sys_error _ ->
            Obs.Counter.incr c_write_errors;
            write_failed := true)
    end
  in
  let cancelled () = job.conn.eof || !write_failed in
  match Engine.serve t.engine ~on_frame ~cancelled req with
  | { Engine.anytime = Some { Engine.status = `Cancelled; _ }; _ } -> None
  | served ->
      let anytime =
        Option.bind served.Engine.anytime Protocol.anytime_of_engine
      in
      Some
        (finish ?anytime job start deadline_limited (Ok served.Engine.response))
  | exception exn -> Some (finish job start deadline_limited (Error exn))

(* One gathered batch: account, weed out queue-expired jobs, resolve the
   rest into engine requests, evaluate them as one [Engine.eval_batch]
   (sharing sub-answers through the store), and reply per job. The
   engine is thread-safe, so workers run their batches concurrently with
   no server-side serialization. SLO-carrying jobs arrive as singleton
   batches (the scheduler never buckets them) and run through
   [serve_job] instead of the batch evaluator. *)
let process_batch t jobs =
  let start = now () in
  Obs.Counter.incr c_batches;
  Obs.Histogram.observe h_batch_jobs (List.length jobs);
  List.iter
    (fun job ->
      Atomic.decr t.backlog;
      Obs.Counter.add c_depth (-1);
      Obs.Histogram.observe h_queue_us (us_of_s (start -. job.enqueued_at)))
    jobs;
  let staged =
    List.map
      (fun job ->
        match job.deadline with
        | Some dl when start >= dl ->
            Obs.Counter.incr c_deadline;
            ( job,
              `Reply
                (Protocol.Err
                   (Protocol.error Protocol.Deadline_exceeded
                      "deadline expired while queued")) )
        | _ -> (
            match prepare t job start with
            | Error reply -> (job, `Reply reply)
            | Ok (req, deadline_limited) ->
                if req.Engine.Request.slo <> None then
                  (job, `Serve (req, deadline_limited))
                else (job, `Eval (req, deadline_limited))))
      jobs
  in
  let reqs =
    Array.of_list
      (List.filter_map
         (function _, `Eval (req, _) -> Some req | _ -> None)
         staged)
  in
  let results = Engine.eval_batch t.engine reqs in
  let idx = ref 0 in
  List.iter
    (fun (job, stage) ->
      let result =
        match stage with
        | `Reply r -> Some r
        | `Serve (req, deadline_limited) ->
            serve_job t job start deadline_limited req
        | `Eval (_, deadline_limited) ->
            let r = results.(!idx) in
            incr idx;
            Some (finish job start deadline_limited r)
      in
      (match result with
      | Some result ->
          send_reply job.conn { Protocol.reply_id = job.req_id; result }
      | None -> () (* cancelled mid-stream: the peer is gone *));
      Obs.Histogram.observe h_total_us (us_of_s (now () -. job.enqueued_at)))
    staged

let worker_loop t () =
  let rec go () =
    match Bqueue.pop t.batches with
    | None -> () (* closed and drained *)
    | Some jobs ->
        (* [process_batch] catches everything evaluation can throw;
           anything else would kill this worker, so belt-and-braces. *)
        (try process_batch t jobs
         with exn ->
           List.iter
             (fun job ->
               send_error job.conn job.req_id Protocol.Internal
                 (Printexc.to_string exn))
             jobs);
        List.iter (fun job -> conn_release job.conn) jobs;
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Batch scheduler                                                     *)
(* ------------------------------------------------------------------ *)

(* Admitted requests gather into per-shape buckets for up to one window.
   A bucket flushes as one batch when its window closes, when it reaches
   [batch_max], or — the starvation bound — early enough that no member
   waits past one window before its deadline. While at most one
   connection is open no batch partner can arrive, so once the admission
   queue is swept (a pipelined burst still coalesces) every bucket
   flushes at once; a disconnect that leaves at most one connection open
   flushes the waiting buckets the same way. Grouping key: dataset spec,
   query, solver and seed — exactly the requests whose per-session
   sub-problems share engine cache keys (tasks may differ; they share
   sub-answers all the same). *)

type bucket = {
  mutable members_rev : job list;
  mutable n_members : int;
  mutable flush_at : float;
}

let bucket_key (job : job) =
  let e = job.eval in
  (e.Protocol.dataset, e.Protocol.query, e.Protocol.solver, e.Protocol.seed)

let open_connections t =
  Mutex.lock t.conns_m;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conns_m;
  n

let dispatch_loop t () =
  let window = t.cfg.batch_window_ms /. 1000. in
  let buckets = Hashtbl.create 8 in
  let push_batch jobs =
    let rec push () =
      match Bqueue.try_push t.batches jobs with
      | Bqueue.Pushed -> ()
      | Bqueue.Full ->
          (* Unreachable while the backlog bound holds (batches <= jobs
             <= queue_capacity = batch-queue capacity); back off rather
             than drop if it ever does. *)
          Thread.delay 0.0005;
          push ()
      | Bqueue.Closed ->
          (* A drain raced the flush: admitted jobs still get a typed
             reply, never silence. *)
          List.iter
            (fun job ->
              Atomic.decr t.backlog;
              Obs.Counter.add c_depth (-1);
              send_error job.conn job.req_id Protocol.Shutting_down
                "server is draining";
              conn_release job.conn)
            jobs
    in
    push ()
  in
  let flush key b =
    Hashtbl.remove buckets key;
    push_batch (List.rev b.members_rev)
  in
  let flush_where p =
    List.iter
      (fun (k, b) -> flush k b)
      (Hashtbl.fold (fun k b acc -> if p b then (k, b) :: acc else acc) buckets [])
  in
  let flush_all () = flush_where (fun _ -> true) in
  let admit job =
    (* SLO-carrying jobs never gather: each streams (or samples) on its
       own worker immediately, as a singleton batch — holding one behind
       a window would eat into its accuracy deadline, and frame
       interleaving is per-connection anyway. *)
    if
      Protocol.slo_of_eval job.eval <> None
      || window <= 0.
      || t.cfg.batch_max <= 1
    then push_batch [ job ]
    else begin
      let now_ = now () in
      let slack_bound =
        match job.deadline with
        | None -> infinity
        | Some dl -> Float.max now_ (dl -. window)
      in
      let key = bucket_key job in
      match Hashtbl.find_opt buckets key with
      | Some b ->
          b.members_rev <- job :: b.members_rev;
          b.n_members <- b.n_members + 1;
          b.flush_at <- Float.min b.flush_at slack_bound;
          if b.n_members >= t.cfg.batch_max then flush key b
      | None ->
          Hashtbl.add buckets key
            {
              members_rev = [ job ];
              n_members = 1;
              flush_at = Float.min (now_ +. window) slack_bound;
            }
    end
  in
  let rec loop () =
    if Hashtbl.length buckets = 0 then (
      (* Nothing gathering: park until work or close. *)
      match Bqueue.pop t.queue with
      | None -> flush_all () (* closed and drained: exit *)
      | Some job ->
          admit job;
          loop ())
    else
      match Bqueue.try_pop t.queue with
      | `Item job ->
          admit job;
          loop ()
      | `Closed -> flush_all ()
      | `Empty ->
          let now_ = now () in
          if open_connections t <= 1 then begin
            Hashtbl.iter
              (fun _ b -> if b.flush_at > now_ then Obs.Counter.incr c_direct)
              buckets;
            flush_all ()
          end
          else flush_where (fun b -> b.flush_at <= now_);
          if Hashtbl.length buckets > 0 then begin
            let next =
              Hashtbl.fold
                (fun _ b acc -> Float.min acc b.flush_at)
                buckets infinity
            in
            (* Short bounded ticks toward the earliest window close keep
               the gather latency tight without busy-waiting. *)
            Thread.delay (Float.max 0.0002 (Float.min 0.0005 (next -. now_)))
          end;
          loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Per-connection reader                                               *)
(* ------------------------------------------------------------------ *)

type read_result = Line of string | Too_long | Eof

(* Bounded replacement for [input_line]: accumulation stops the moment a
   line exceeds [max], so a client streaming bytes without a newline
   cannot exhaust server memory. The overlong line's remainder is
   discarded up to its terminating newline and reported as [Too_long],
   keeping the connection usable. A final unterminated line before EOF
   is returned as a [Line], matching [input_line]. *)
let read_line_bounded conn max =
  let result = ref None in
  let discarding = ref false in
  while !result = None do
    if conn.rpos >= conn.rlen then begin
      match Unix.read conn.fd conn.rchunk 0 read_chunk_bytes with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | (exception Unix.Unix_error _) | 0 ->
          if !discarding then result := Some Too_long
          else if Buffer.length conn.racc > 0 then begin
            let line = Buffer.contents conn.racc in
            Buffer.clear conn.racc;
            result := Some (Line line)
          end
          else result := Some Eof
      | len ->
          conn.rpos <- 0;
          conn.rlen <- len
    end
    else begin
      let j = ref conn.rpos in
      while !j < conn.rlen && Bytes.get conn.rchunk !j <> '\n' do
        incr j
      done;
      let seg = !j - conn.rpos in
      if !discarding then ()
      else if Buffer.length conn.racc + seg > max then begin
        Buffer.clear conn.racc;
        discarding := true
      end
      else Buffer.add_subbytes conn.racc conn.rchunk conn.rpos seg;
      if !j < conn.rlen then begin
        conn.rpos <- !j + 1;
        if !discarding then result := Some Too_long
        else begin
          let line = Buffer.contents conn.racc in
          Buffer.clear conn.racc;
          result := Some (Line line)
        end
      end
      else conn.rpos <- conn.rlen
    end
  done;
  Option.get !result

let handle_line t conn line =
  Obs.Counter.incr c_requests;
  match Json.of_string line with
  | Error msg -> send_error conn None Protocol.Bad_request msg
  | Ok json -> (
      match Protocol.request_of_json json with
      | Error err ->
          send_reply conn
            {
              Protocol.reply_id = Json.member "id" json;
              result = Protocol.Err err;
            }
      | Ok { Protocol.id; op = Protocol.Ping } ->
          send_reply conn { Protocol.reply_id = id; result = Protocol.Pong }
      | Ok { Protocol.id; op = Protocol.Metrics } ->
          send_reply conn
            {
              Protocol.reply_id = id;
              result =
                Protocol.Metrics_snapshot
                  (Protocol.snapshot_to_json (Obs.snapshot ()));
            }
      | Ok { Protocol.id; op = Protocol.Eval e } ->
          if Atomic.get t.draining then
            send_error conn id Protocol.Shutting_down "server is draining"
          else
            let enqueued_at = now () in
            let timeout_ms =
              match e.Protocol.timeout_ms with
              | Some _ as s -> s
              | None -> t.cfg.default_timeout_ms
            in
            let deadline =
              Option.map (fun ms -> enqueued_at +. (ms /. 1000.)) timeout_ms
            in
            let job = { eval = e; req_id = id; conn; enqueued_at; deadline } in
            (* The queued job holds a reference (dropped by the worker
               after its reply); retain before pushing — a worker may
               finish the job before [try_push] even returns. *)
            conn_retain conn;
            (* The shed knee is the admitted-but-unprocessed backlog, not
               the raw queue length: the batch scheduler drains the
               admission queue eagerly into gather buckets, so queue
               length alone would never reach capacity. *)
            if Atomic.get t.backlog >= t.cfg.queue_capacity then begin
              conn_release conn;
              Obs.Counter.incr c_shed;
              send_error conn id Protocol.Overloaded
                (Printf.sprintf
                   "admission backlog full (%d requests); retry later"
                   t.cfg.queue_capacity)
            end
            else begin
              Atomic.incr t.backlog;
              match Bqueue.try_push t.queue job with
              | Bqueue.Pushed ->
                  Obs.Counter.incr c_admitted;
                  Obs.Counter.incr c_depth
              | Bqueue.Full ->
                  Atomic.decr t.backlog;
                  conn_release conn;
                  Obs.Counter.incr c_shed;
                  send_error conn id Protocol.Overloaded
                    (Printf.sprintf
                       "admission queue full (%d requests); retry later"
                       (Bqueue.capacity t.queue))
              | Bqueue.Closed ->
                  Atomic.decr t.backlog;
                  conn_release conn;
                  send_error conn id Protocol.Shutting_down
                    "server is draining"
            end)

let conn_loop t conn () =
  let closed = ref false in
  (try
     while not !closed do
       match read_line_bounded conn t.cfg.max_request_bytes with
       | Eof -> closed := true
       | Too_long ->
           send_error conn None Protocol.Bad_request
             (Printf.sprintf "request line exceeds %d bytes"
                t.cfg.max_request_bytes)
       | Line line ->
           let line =
             (* tolerate CRLF clients *)
             let n = String.length line in
             if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
             else line
           in
           if line <> "" then handle_line t conn line
     done
   with _ -> ());
  (* Whether EOF or a reader crash: the peer can send nothing more, so
     in-flight anytime sampling for this connection may stop. A plain
     write to a bool is fine under the memory model — workers only ever
     read it, and reading it late just costs one more round. *)
  conn.eof <- true;
  Obs.Counter.add c_active (-1);
  Mutex.lock t.conns_m;
  Hashtbl.remove t.conns conn.cid;
  Condition.broadcast t.conns_cv;
  Mutex.unlock t.conns_m;
  (* Drop the reader's reference; the descriptor closes once the last
     queued/in-flight job for this connection has been answered. *)
  conn_release conn

(* ------------------------------------------------------------------ *)
(* Accept loop                                                         *)
(* ------------------------------------------------------------------ *)

let accept_loop t () =
  let stop = ref false in
  while not !stop do
    (* The finite timeout is load-bearing: a signal may be delivered to a
       thread parked in a condition wait that never reaches a poll point,
       leaving the OCaml-level handler pending. Returning from [select]
       re-enters the runtime and runs it, so drain latency is bounded by
       this tick even when the signal lands on an unlucky thread. *)
    match Unix.select [ t.listen_fd; t.stop_r ] [] [] 0.25 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
        if Atomic.get t.draining || List.mem t.stop_r readable then
          stop := true
        else if List.mem t.listen_fd readable then begin
          match Unix.accept t.listen_fd with
          | exception Unix.Unix_error _ -> ()
          | fd, _peer ->
              Obs.Counter.incr c_accepted;
              Mutex.lock t.conns_m;
              let n_active = Hashtbl.length t.conns in
              let cid = t.next_cid in
              t.next_cid <- cid + 1;
              let conn =
                {
                  cid;
                  fd;
                  wm = Mutex.create ();
                  cm = Mutex.create ();
                  refs = 1;
                  rchunk = Bytes.create read_chunk_bytes;
                  rpos = 0;
                  rlen = 0;
                  racc = Buffer.create 256;
                  eof = false;
                }
              in
              if n_active >= t.cfg.max_connections then begin
                Mutex.unlock t.conns_m;
                Obs.Counter.incr c_refused;
                send_error conn None Protocol.Overloaded
                  (Printf.sprintf "connection limit (%d) reached"
                     t.cfg.max_connections);
                conn_release conn
              end
              else begin
                Hashtbl.replace t.conns cid conn;
                Mutex.unlock t.conns_m;
                Obs.Counter.incr c_active;
                ignore (Thread.create (conn_loop t conn) ())
              end
        end
  done;
  (* Stop accepting: close (and for Unix-domain sockets, unlink) the
     listening endpoint before the drain proceeds. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  match t.bound with
  | Protocol.Local path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let bind_listener = function
  | Protocol.Local path ->
      (match Unix.lstat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Protocol.Local path)
  | Protocol.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      let actual_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Protocol.Tcp (host, actual_port))

let start cfg =
  if cfg.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd, bound = bind_listener cfg.address in
  let stop_r, stop_w = Unix.pipe () in
  let t =
    {
      cfg;
      listen_fd;
      bound;
      engine =
        Engine.create
          {
            Engine.Config.jobs = cfg.jobs;
            answer_capacity = cfg.cache_capacity;
            term_capacity = cfg.term_cache_capacity;
            batch_window = cfg.batch_window_ms /. 1000.;
            batch_max = cfg.batch_max;
            shards = cfg.shards;
          };
      registry = Registry.create ();
      queue = Bqueue.create ~capacity:cfg.queue_capacity;
      batches = Bqueue.create ~capacity:cfg.queue_capacity;
      backlog = Atomic.make 0;
      draining = Atomic.make false;
      stop_r;
      stop_w;
      accept_thread = None;
      worker_threads = [];
      dispatch_thread = None;
      conns = Hashtbl.create 32;
      conns_m = Mutex.create ();
      conns_cv = Condition.create ();
      next_cid = 0;
    }
  in
  List.iter
    (fun spec ->
      match Registry.preload t.registry spec with
      | Ok () -> ()
      | Error e ->
          log t "preload %s failed: %s" spec.Protocol.ds_name
            e.Protocol.message)
    cfg.preload;
  t.worker_threads <-
    List.init cfg.workers (fun _ -> Thread.create (worker_loop t) ());
  t.dispatch_thread <- Some (Thread.create (dispatch_loop t) ());
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  log t
    "listening on %s (jobs=%d, queue=%d, workers=%d, batch window=%gms max=%d)"
    (Protocol.address_to_string bound)
    (Engine.jobs t.engine) cfg.queue_capacity cfg.workers cfg.batch_window_ms
    cfg.batch_max;
  t

let address t = t.bound

let request_drain t =
  if Atomic.compare_and_set t.draining false true then
    (* Async-signal-safe: one byte on the self-pipe wakes the accept
       loop's select. *)
    try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let draining t = Atomic.get t.draining

let flush_metrics t =
  match t.cfg.metrics_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Obs.json_of_snapshot
           ~extra:[ ("schema", "\"hardq-server-metrics/1\"") ]
           (Obs.snapshot ()));
      output_char oc '\n';
      close_out oc;
      log t "metrics snapshot written to %s" path

let await t =
  (* Block until a drain is requested: the accept loop only exits then. *)
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  log t "draining: listener closed, finishing %d admitted request(s)"
    (Atomic.get t.backlog);
  (* No new admissions. Close upstream-to-downstream: the scheduler
     drains the admission queue and flushes its gather buckets before
     exiting, then the batch queue closes under the workers. *)
  Bqueue.close t.queue;
  (match t.dispatch_thread with Some th -> Thread.join th | None -> ());
  Bqueue.close t.batches;
  List.iter Thread.join t.worker_threads;
  (* All replies are written; hang up on the readers and wait for them
     to unregister. [shutdown] (not [close]) wakes a thread blocked in
     [input_line] on another thread's descriptor. *)
  Mutex.lock t.conns_m;
  Hashtbl.iter
    (fun _ conn ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ -> ())
    t.conns;
  while Hashtbl.length t.conns > 0 do
    Condition.wait t.conns_cv t.conns_m
  done;
  Mutex.unlock t.conns_m;
  Engine.shutdown t.engine;
  flush_metrics t;
  (try Unix.close t.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close t.stop_w with Unix.Unix_error _ -> ());
  log t "drained cleanly"

let drain t =
  request_drain t;
  await t

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_drain t) in
  Sys.set_signal Sys.sigterm handle;
  Sys.set_signal Sys.sigint handle

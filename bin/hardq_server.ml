(* hardq-server — keep the engine and the synthetic PPDs resident and
   serve Boolean / Count-Session / Most-Probable-Session queries over
   newline-delimited JSON. See DESIGN.md for the wire protocol. *)

open Cmdliner

let address_conv =
  let parse s =
    match Server.Protocol.address_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  let print ppf a =
    Format.pp_print_string ppf (Server.Protocol.address_to_string a)
  in
  Arg.conv (parse, print)

let listen_arg =
  let doc =
    "Address to listen on: $(b,HOST:PORT), $(b,:PORT) (loopback, port 0 \
     picks an ephemeral port) or a filesystem path for a Unix-domain \
     socket."
  in
  Arg.(
    value
    & opt address_conv (Server.Protocol.Tcp ("127.0.0.1", 7199))
    & info [ "listen"; "l" ] ~docv:"ADDR" ~doc)

let jobs_arg =
  let doc = "Engine pool size (0 = one domain per available core)." in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cache_arg =
  let doc = "Answer-tier cache capacity (entries)." in
  Arg.(value & opt int 8192 & info [ "cache" ] ~docv:"N" ~doc)

let term_cache_arg =
  let doc =
    "Term-tier cache capacity (solved IE conjunctions shared across \
     queries over the same model; 0 disables the tier)."
  in
  Arg.(value & opt int 4096 & info [ "term-cache" ] ~docv:"N" ~doc)

let batch_window_arg =
  let doc =
    "Batch-scheduler gather window in milliseconds: admitted requests \
     with the same dataset, query, solver and seed wait up to this long \
     to be evaluated as one engine batch (0 = dispatch immediately). \
     The window applies only while another connection is open: with at \
     most one connection no batch partner can arrive, so requests are \
     dispatched as soon as the queued ones are gathered. Batching never \
     changes answers."
  in
  Arg.(value & opt float 2. & info [ "batch-window-ms" ] ~docv:"MS" ~doc)

let batch_max_arg =
  let doc = "Flush a gather bucket once it holds this many requests." in
  Arg.(value & opt int 16 & info [ "batch-max" ] ~docv:"N" ~doc)

let shards_arg =
  let doc =
    "Session partition count, at least 1 (1 = unsharded). With more \
     than one shard, a query's sessions are placed on that many \
     partitions run on the engine's domain pool: Count-Session merges \
     and sums, top-k runs two-phase with cross-shard bound pruning, and \
     replies carry an additive $(b,shards) accounting block. Answers \
     are bit-identical at any shard count."
  in
  Arg.(value & opt Engine_flags.shards_conv 1 & info [ "shards" ] ~docv:"N" ~doc)

let intra_arg =
  let doc =
    "Default intra-query parallelism for requests without a \
     $(b,parallelism) field: solver calls may fan their own work across \
     the engine pool. Answers are bit-identical either way."
  in
  Arg.(value & opt bool true & info [ "intra" ] ~docv:"BOOL" ~doc)

let queue_arg =
  let doc =
    "Admission-queue bound: requests beyond it are shed immediately with \
     a typed $(b,overloaded) error."
  in
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)

let workers_arg =
  let doc =
    "Evaluator threads. The engine is thread-safe and single-flights \
     duplicate sub-problems, so workers evaluate batches concurrently."
  in
  Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)

let max_connections_arg =
  let doc = "Connections beyond this are refused with $(b,overloaded)." in
  Arg.(value & opt int 1024 & info [ "max-connections" ] ~docv:"N" ~doc)

let timeout_arg =
  let doc =
    "Default per-request deadline in milliseconds, applied when a request \
     carries no $(b,timeout_ms) of its own (0 = none)."
  in
  Arg.(value & opt float 0. & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let metrics_json_arg =
  let doc =
    "Write the final observability snapshot (counters and latency \
     histograms for the whole serving path) to $(docv) when the server \
     drains."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"PATH" ~doc)

let preload_arg =
  let doc =
    "Synthesize these datasets at startup instead of on first request \
     (repeatable; default sizes)."
  in
  Arg.(value & opt_all string [] & info [ "preload" ] ~docv:"NAME" ~doc)

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress lifecycle log lines.")

let run listen jobs cache term_cache batch_window_ms batch_max shards intra
    kernel queue
    workers max_connections timeout_ms metrics_json preload quiet =
  let config =
    {
      (Server.default_config listen) with
      Server.jobs = (if jobs <= 0 then None else Some jobs);
      cache_capacity = cache;
      term_cache_capacity = term_cache;
      batch_window_ms;
      batch_max;
      shards;
      intra;
      kernel;
      queue_capacity = queue;
      workers;
      max_connections;
      default_timeout_ms = (if timeout_ms > 0. then Some timeout_ms else None);
      metrics_path = metrics_json;
      preload = List.map (fun name -> Server.Protocol.dataset name) preload;
      quiet;
    }
  in
  let server = Server.start config in
  Server.install_signal_handlers server;
  Server.await server;
  0

let cmd =
  let doc = "serve hard queries over resident probabilistic preferences" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Keeps one engine and a registry of named RIM-PPD instances \
         resident and answers Boolean, Count-Session and \
         Most-Probable-Session requests over newline-delimited JSON, with \
         bounded admission, per-request deadlines and graceful drain on \
         SIGTERM/SIGINT.";
      `S Manpage.s_examples;
      `Pre
        "  hardq-server --listen :7199 --jobs 0 --preload polls\n\
        \  echo '{\"op\":\"ping\"}' | nc 127.0.0.1 7199";
    ]
  in
  Cmd.v
    (Cmd.info "hardq-server" ~doc ~man)
    Term.(
      const run $ listen_arg $ jobs_arg $ cache_arg $ term_cache_arg
      $ batch_window_arg $ batch_max_arg $ shards_arg $ intra_arg $ Engine_flags.kernel_arg
      $ queue_arg
      $ workers_arg $ max_connections_arg $ timeout_arg $ metrics_json_arg
      $ preload_arg $ quiet_arg)

let () = exit (Cmd.eval' cmd)

(* Deterministic log lines go to [log]; anything timing-dependent (the
   throughput summary) goes to stderr, so same-seed runs stay
   byte-comparable on stdout. *)

type config = {
  seed : int;
  seconds : float;
  iters : int;
  params : Gen.params;
  corpus_dir : string option;
  extra : (string * Oracle.solver_fn) list;
}

let default =
  {
    seed = 42;
    seconds = 30.;
    iters = 0;
    params = Gen.default;
    corpus_dir = None;
    extra = [];
  }

type outcome = {
  cases : int;
  failures : int;
  skips : int;
  added : string list;
}

(* The serving layer's exact float rendering, so replay output can be
   compared textually against a served JSON answer. *)
let json_float v = Server.Json.to_string (Server.Json.Float v)

let run ?(log = Format.std_formatter) cfg =
  let start = Unix.gettimeofday () in
  Format.fprintf log "fuzz seed=%d max_items=%d max_sessions=%d@." cfg.seed
    cfg.params.Gen.max_items cfg.params.Gen.max_sessions;
  let cases = ref 0 and failures = ref 0 and skips = ref 0 in
  let added = ref [] in
  let stop () =
    (cfg.iters > 0 && !cases >= cfg.iters)
    || (cfg.seconds > 0. && Unix.gettimeofday () -. start >= cfg.seconds)
  in
  while not (stop ()) do
    let i = !cases in
    incr cases;
    let case = Gen.case ~params:cfg.params (Util.Rng.derive cfg.seed i) in
    match Oracle.check ~extra:cfg.extra case with
    | Pass _ -> ()
    | Skip _ -> incr skips
    | Fail { check; detail } ->
        incr failures;
        (* Shrink against the exact-only oracle: approx verdicts would
           make the minimization (and hence the corpus) sampling-
           dependent. If the failure was approx-only the shrinker keeps
           the case as is. *)
        let still_failing = Oracle.fails ~extra:cfg.extra in
        let small =
          if still_failing case then Shrink.minimize ~still_failing case
          else case
        in
        Format.fprintf log "FAIL i=%d check=%s@." i check;
        Format.fprintf log "  detail: %s@." detail;
        Format.fprintf log "  shrunk: m=%d digest=%s@."
          (Ppd.Database.m small.Ppd.Case.db)
          (Ppd.Case.digest small);
        (match cfg.corpus_dir with
        | None -> ()
        | Some dir ->
            let path =
              match Corpus.add ~dir ~seed:cfg.seed ~index:i small with
              | `Added p ->
                  added := p :: !added;
                  p
              | `Duplicate p -> p
            in
            Format.fprintf log "  corpus: %s@." path;
            Format.fprintf log "  replay: dune exec bin/hardq_qa.exe -- replay %s@."
              path)
  done;
  Printf.eprintf "fuzz: %d cases, %d failures, %d skips in %.1fs\n%!" !cases
    !failures !skips
    (Unix.gettimeofday () -. start);
  { cases = !cases; failures = !failures; skips = !skips; added = List.rev !added }

let sweep ~log ~(check : Ppd.Case.t -> Oracle.result) path =
  let cases = ref 0 and failures = ref 0 and skips = ref 0 in
  let check_file file =
    incr cases;
    match Ppd.Case.load file with
    | Error msg ->
        incr failures;
        Format.fprintf log "FAIL %s unparseable@.  detail: %s@." file msg
    | Ok case -> (
        match check case with
        | Pass r ->
            Format.fprintf log "ok %s answer=%s checks=%d@." file
              (json_float r.Oracle.answer)
              r.Oracle.checks
        | Skip msg ->
            incr skips;
            Format.fprintf log "skip %s — %s@." file msg
        | Fail { check; detail } ->
            incr failures;
            Format.fprintf log "FAIL %s check=%s@.  detail: %s@." file check
              detail)
  in
  if Sys.file_exists path && Sys.is_directory path then
    List.iter check_file
      (List.map (Filename.concat path) (Corpus.files path))
  else if Sys.file_exists path then check_file path
  else begin
    incr failures;
    Format.fprintf log "FAIL %s missing@." path
  end;
  { cases = !cases; failures = !failures; skips = !skips; added = [] }

let replay ?(log = Format.std_formatter) ?(extra = []) path =
  sweep ~log ~check:(Oracle.check ~extra) path

let anytime_diff ?(log = Format.std_formatter) path =
  sweep ~log ~check:(fun case -> Oracle.anytime case) path

let shard_diff ?(log = Format.std_formatter) path =
  sweep ~log ~check:(fun case -> Oracle.shard_diff case) path

(* The acceptance bar for the planner: besides every per-case check
   passing, the corpus as a whole must route at least one query to each
   plan node kind — a corpus that never exercises, say, the sampling
   leaf would let routing regressions through silently. *)
let required_kinds = [ "exact"; "union-ie"; "sample"; "aggregate"; "top-k" ]

let lang_diff ?(log = Format.std_formatter) path =
  let covered = Hashtbl.create 8 in
  let o =
    sweep ~log
      ~check:(fun case ->
        let result, kinds = Oracle.lang_diff case in
        List.iter (fun k -> Hashtbl.replace covered k ()) kinds;
        result)
      path
  in
  let missing =
    List.filter (fun k -> not (Hashtbl.mem covered k)) required_kinds
  in
  if missing = [] then begin
    Format.fprintf log "coverage: every plan node kind routed (%s)@."
      (String.concat ", " required_kinds);
    o
  end
  else begin
    List.iter
      (fun k ->
        Format.fprintf log
          "FAIL coverage — no corpus case routed to plan node kind %s@." k)
      missing;
    { o with failures = o.failures + List.length missing }
  end

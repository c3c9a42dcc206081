(* Figure 15: scalability in the number of sessions over the CrowdRank
   surrogate — naive per-session evaluation vs grouping identical
   (model, pattern-union) requests.

   Paper shape: the naive curve is linear in the session count; grouping
   converges once every distinct request has been seen (their 200k
   sessions finish in ~118s). The engine generalizes grouping into a
   persistent cache, so a warm second evaluation answers every distinct
   request from the cache without touching a solver. *)

let run ~full () =
  Exp_util.header "Figure 15" "session scalability over CrowdRank (grouping)";
  Exp_util.note
    "paper: naive evaluation is linear in #sessions; grouping flattens out";
  let q = Ppd.Parser.parse Datasets.Crowdrank.query_fig15 in
  (* HARDQ_BENCH_SMOKE shrinks the run to seconds: the schema test only
     needs one emitted JSON row per point, not a meaningful curve. *)
  let smoke = Sys.getenv_opt "HARDQ_BENCH_SMOKE" <> None in
  let solver =
    Hardq.Solver.Approx
      (Hardq.Solver.Mis_lite
         {
           d = 3;
           n_per = (if smoke then 40 else if full then 300 else 150);
           compensate = true;
         })
  in
  let counts =
    if smoke then [ (60, true) ]
    else if full then
      [ (100, true); (1_000, true); (10_000, true); (50_000, false); (200_000, false) ]
    else [ (100, true); (1_000, true); (10_000, false) ]
  in
  List.iter
    (fun (n, naive_too) ->
      let db = Datasets.Crowdrank.generate ~n_workers:n ~seed:151 () in
      Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
          let req = Engine.Request.make ~task:Engine.Request.Count ~solver ~seed:9 db q in
          let eval () =
            let t0 = Util.Timer.wall () in
            let resp = Engine.eval engine req in
            (resp, Util.Timer.wall () -. t0)
          in
          (* The cold evaluation runs instrumented, so its response carries
             the sampler-draw / cache metrics delta for the JSON row; the
             enabled overhead is a few atomic adds per inference, noise
             against the sampler work measured here. *)
          Obs.enable ();
          let cold, t_cold = eval () in
          Obs.disable ();
          let warm, t_warm = eval () in
          assert (warm.Engine.Response.stats.Engine.Response.cache_misses = 0);
          Exp_util.json_line
            Server.Json.(
              ("bench", String "fig15-scaling") :: ("sessions", Int n)
              :: ("cold_s", Float t_cold) :: ("warm_s", Float t_warm)
              :: ("distinct", Int cold.Engine.Response.stats.Engine.Response.distinct)
              :: Exp_util.obs_fields
                   cold.Engine.Response.stats.Engine.Response.metrics);
          if naive_too then begin
            let _, t_naive =
              Util.Timer.time (fun () ->
                  Ppd.Solve.count_sessions ~solver ~group:false db q
                    (Util.Rng.make 9))
            in
            Exp_util.row
              "%7d sessions: naive %9.2fs   cold %8.2fs   warm %8.4fs (%d distinct)"
              n t_naive t_cold t_warm
              cold.Engine.Response.stats.Engine.Response.distinct
          end
          else
            Exp_util.row
              "%7d sessions: naive   (skipped)   cold %8.2fs   warm %8.4fs (%d distinct)"
              n t_cold t_warm
              cold.Engine.Response.stats.Engine.Response.distinct))
    counts

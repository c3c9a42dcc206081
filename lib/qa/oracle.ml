(* Differential + metamorphic checks over one case. See oracle.mli for
   the matrix; DESIGN.md §10 documents it prose-side. *)

type solver_fn = Rim.Model.t -> Prefs.Labeling.t -> Prefs.Pattern_union.t -> float

type report = {
  sessions : int;
  nontrivial : int;
  checks : int;
  answer : float;
}

type result =
  | Pass of report
  | Fail of { check : string; detail : string }
  | Skip of string

exception Failed of string * string
exception Skipped of string

let brute_max = 7

let fail check fmt = Printf.ksprintf (fun detail -> raise (Failed (check, detail))) fmt

let close eps a b = abs_float (a -. b) <= eps

(* Checks must be a pure function of the case: the sampling streams are
   keyed on the case content, not on any ambient state. *)
let case_rng case = Util.Rng.derive (Hashtbl.hash (Ppd.Case.digest case)) 1

let check ?(eps = 1e-9) ?(budget = 0.5) ?(approx = true) ?(extra = []) (case : Ppd.Case.t) =
  let { Ppd.Case.db; query; _ } = case in
  let n_checks = ref 0 in
  let ran fmt = Printf.ksprintf (fun _ -> incr n_checks) fmt in
  let b () = Util.Timer.budget budget in
  (* Work-sharing pool for the intra-query parallel solver rows. Created
     lazily (most cases never get past cheaper failures) and shut down on
     every exit path. *)
  let pool = lazy (Engine.Pool.create ~jobs:2 ()) in
  let par () = Engine.Pool.sharer (Lazy.force pool) in
  Fun.protect ~finally:(fun () ->
      if Lazy.is_val pool then Engine.Pool.shutdown (Lazy.force pool))
  @@ fun () ->
  try
    let compiled =
      try Ppd.Compile.compile db query with
      | Ppd.Compile.Unsupported msg -> raise (Skipped ("compile unsupported: " ^ msg))
      | Ppd.Compile.Grounding_too_large msg -> raise (Skipped ("grounding: " ^ msg))
    in
    let lab = Ppd.Database.labeling db in
    let m = Ppd.Database.m db in
    let approx_rng = case_rng case in
    let nontrivial = ref 0 in
    List.iteri
      (fun i { Ppd.Compile.session; union } ->
        match union with
        | None -> ()
        | Some u ->
            incr nontrivial;
            let mal = session.Ppd.Database.model in
            let model = Rim.Mallows.to_rim mal in
            let kind = Prefs.Pattern_union.kind u in
            let exact ?par ?kernel name s =
              (name, Hardq.Solver.exact_prob ~budget:(b ()) ?par ?kernel s model lab u)
            in
            (* Every applicable DP solver in four rows: sequential and
               under the 2-domain pool ("-par"), each in the default flat
               kernel and the boxed reference layout ("-boxed"). *)
            let dp name s =
              let boxed = Hardq.Kernel.Boxed in
              [
                exact name s;
                exact ~par:(par ()) (name ^ "-par") s;
                exact ~kernel:boxed (name ^ "-boxed") s;
                exact ~par:(par ()) ~kernel:boxed (name ^ "-par-boxed") s;
              ]
            in
            let dp_solvers =
              [ ("general", `General); ("auto", `Auto) ]
              @ (if kind = Prefs.Pattern_union.Two_label then
                   [ ("two_label", `Two_label) ]
                 else [])
              @
              if kind <> Prefs.Pattern_union.General then
                [ ("bipartite", `Bipartite); ("bipartite_basic", `Bipartite_basic) ]
              else []
            in
            let matrix =
              (if m <= brute_max then [ exact "brute" `Brute ] else [])
              @ List.concat_map (fun (name, s) -> dp name s) dp_solvers
              @ List.map (fun (name, fn) -> (name, fn model lab u)) extra
            in
            (* The -par and -boxed rows also pass through the eps matrix
               below, but their real contract is stronger: bit-identity
               with the sequential flat run, whatever the pool width — the
               two kernels are the same computation in two layouts. *)
            List.iter
              (fun (name, _) ->
                let p_seq = List.assoc name matrix in
                List.iter
                  (fun (suffix, what) ->
                    let p = List.assoc (name ^ suffix) matrix in
                    if p <> p_seq then
                      fail
                        (Printf.sprintf "%s %s bit-identity" name what)
                        "session %d: %s=%.17g %s%s=%.17g" i name p_seq name suffix p;
                    ran "%s-bit %s" what name)
                  [ ("-par", "par"); ("-boxed", "kernel"); ("-par-boxed", "par kernel") ])
              dp_solvers;
            let ref_name, ref_p = List.hd matrix in
            if not (ref_p >= -.eps && ref_p <= 1. +. eps) then
              fail "probability in [0,1]" "session %d: %s returned %.17g" i ref_name ref_p;
            ran "range";
            List.iter
              (fun (name, p) ->
                if not (close eps p ref_p) then
                  fail
                    (Printf.sprintf "%s vs %s" name ref_name)
                    "session %d: %s=%.17g %s=%.17g (|diff|=%.3g, eps=%.3g)" i name p
                    ref_name ref_p (abs_float (p -. ref_p)) eps;
                ran "agree %s" name)
              (List.tl matrix);
            (* k-edge relaxations upper-bound the exact value (§4.3.2). *)
            List.iter
              (fun k ->
                let ub = Hardq.Upper_bound.upper_bound ~budget:(b ()) ~k model lab u in
                if ub < ref_p -. eps then
                  fail
                    (Printf.sprintf "%d-edge upper bound admissible" k)
                    "session %d: ub=%.17g < exact=%.17g" i ub ref_p;
                ran "ub %d" k)
              [ 1; 2 ];
            (* Widening a union can only add satisfying worlds; the union
               bound caps it. *)
            if Prefs.Pattern_union.size u >= 2 then begin
              let singletons =
                List.map
                  (fun g ->
                    Hardq.Solver.exact_prob ~budget:(b ()) `Auto model lab
                      (Prefs.Pattern_union.singleton g))
                  (Prefs.Pattern_union.patterns u)
              in
              List.iter
                (fun p_g ->
                  if p_g > ref_p +. eps then
                    fail "union monotone under widening"
                      "session %d: Pr(g)=%.17g > Pr(G)=%.17g" i p_g ref_p;
                  ran "monotone")
                singletons;
              let sum = List.fold_left ( +. ) 0. singletons in
              if ref_p > sum +. eps then
                fail "union bound" "session %d: Pr(G)=%.17g > sum of parts %.17g" i
                  ref_p sum;
              ran "union bound"
            end;
            (* Complement sanity: with unique distinct witnesses,
               Pr(a > b) + Pr(b > a) = 1. *)
            List.iter
              (fun g ->
                if Prefs.Pattern.is_two_label g then
                  match Prefs.Pattern.edges g with
                  | [ (l, r) ] -> (
                      let left = Prefs.Pattern.node g l
                      and right = Prefs.Pattern.node g r in
                      match
                        ( Prefs.Labeling.items_with_all lab left,
                          Prefs.Labeling.items_with_all lab right )
                      with
                      | [ wa ], [ wb ] when wa <> wb ->
                          let p_fwd =
                            Hardq.Solver.exact_prob ~budget:(b ()) `Auto model lab
                              (Prefs.Pattern_union.singleton g)
                          in
                          let p_bwd =
                            Hardq.Solver.exact_prob ~budget:(b ()) `Auto model lab
                              (Prefs.Pattern_union.singleton
                                 (Prefs.Pattern.two_label ~left:right ~right:left))
                          in
                          if not (close (2. *. eps) (p_fwd +. p_bwd) 1.) then
                            fail "complement sums to 1"
                              "session %d: Pr(a>b)=%.17g + Pr(b>a)=%.17g = %.17g" i
                              p_fwd p_bwd (p_fwd +. p_bwd);
                          ran "complement"
                      | _ -> ())
                  | _ -> ())
              (Prefs.Pattern_union.patterns u);
            if approx then begin
              (* Rejection sampling is a binomial draw: judge it with a
                 wide Wilson interval (z=5, false alarms negligible). *)
              let n_rs = 500 in
              let est =
                Hardq.Solver.approx_prob (Hardq.Solver.Rejection { n = n_rs }) mal lab u
                  approx_rng
              in
              let p_hat = Hardq.Estimate.value est in
              let lo, hi = Util.Stats.wilson_ci ~p_hat ~n:n_rs () in
              if ref_p < lo -. eps || ref_p > hi +. eps then
                fail "rejection within Wilson CI"
                  "session %d: exact=%.17g outside [%.6g, %.6g] (p_hat=%.6g, n=%d)" i
                  ref_p lo hi p_hat n_rs;
              ran "rejection";
              (* IS weights are unbounded, so the full MIS-AMP estimator
                 only gets a flat gross-error band: it catches sign/bias
                 bugs, not noise. Its cost is quadratic in the proposal
                 count, so wide unions are exempt (the lite check below
                 still covers them). *)
              let width =
                Hardq.Mis_amp_lite.plan_width
                  (Hardq.Mis_amp_lite.prepare mal lab u)
              in
              if width <= 16 then begin
                let est =
                  Hardq.Solver.approx_prob
                    (Hardq.Solver.Mis_full { n_per = 200 })
                    mal lab u approx_rng
                in
                let v = Hardq.Estimate.value est in
                if Float.is_nan v || abs_float (v -. ref_p) > 0.25 then
                  fail "mis-amp gross error"
                    "session %d: mis_full=%.17g exact=%.17g (band 0.25)" i v ref_p;
                ran "mis"
              end;
              (* The lite variant without compensation estimates only the
                 selected sub-rankings' mass, so it may only undershoot.
                 (Compensated lite is documented to overshoot on heavily
                 overlapping unions — no two-sided invariant holds.) *)
              let est =
                Hardq.Solver.approx_prob
                  (Hardq.Solver.Mis_lite { d = 2; n_per = 200; compensate = false })
                  mal lab u approx_rng
              in
              let v = Hardq.Estimate.value est in
              if Float.is_nan v || v > ref_p +. 0.25 then
                fail "mis-lite under-coverage"
                  "session %d: uncompensated mis_lite=%.17g > exact=%.17g + 0.25" i
                  v ref_p;
              ran "mis-lite"
            end)
      compiled.Ppd.Compile.requests;
    (* Query level: grouped, ungrouped and engine evaluation are the same
       computation and must agree bit for bit (exact solver). *)
    let grouped = Ppd.Solve.boolean_prob ~group:true db query (Util.Rng.make 42) in
    let ungrouped = Ppd.Solve.boolean_prob ~group:false db query (Util.Rng.make 42) in
    if grouped <> ungrouped then
      fail "grouping bit-identity" "grouped=%.17g ungrouped=%.17g" grouped ungrouped;
    ran "group";
    (* Engine matrix: the two-tier sub-answer store must be invisible in
       answers. For each pool width, the cache-off engine is the
       reference; the cache-on engine must return byte-identical answers
       both cold (claim + solve + publish) and warm (pure hits), for the
       exact tasks and — when [approx] — for a sampler whose per-sub-
       problem RNG is derived from the cache digest. *)
    let engine_rows engine =
      let shot name task solver =
        let resp =
          Engine.eval engine (Engine.Request.make ~task ~solver ~budget db query)
        in
        (name, Engine.Response.answer_float resp, resp.Engine.Response.stats)
      in
      (* Explicit sequencing: list literals evaluate right-to-left, and
         the cold/warm distinction depends on execution order. *)
      let b = shot "boolean" Engine.Request.Boolean (Hardq.Solver.Exact `Auto) in
      let c = shot "count" Engine.Request.Count (Hardq.Solver.Exact `Auto) in
      let rest =
        if approx then
          [ shot "mis-lite" Engine.Request.Boolean
              (Hardq.Solver.Approx
                 (Hardq.Solver.Mis_lite { d = 2; n_per = 50; compensate = false }))
          ]
        else []
      in
      b :: c :: rest
    in
    let run_matrix ~jobs ~cache =
      let cfg =
        Engine.Config.(default |> with_jobs jobs |> with_cache cache)
      in
      Engine.with_engine cfg (fun engine ->
          let cold = engine_rows engine in
          let warm = engine_rows engine in
          (cold, warm))
    in
    let ref_cold, ref_warm = run_matrix ~jobs:1 ~cache:false in
    List.iter
      (fun jobs ->
        let cold, warm = run_matrix ~jobs ~cache:true in
        List.iter2
          (fun (name, p_ref, _) (name', p, _) ->
            assert (name = name');
            if p <> p_ref then
              fail
                (Printf.sprintf "cache-cold bit-identity (%s, jobs=%d)" name jobs)
                "cache on=%.17g off=%.17g" p p_ref;
            ran "cache-cold %s" name)
          ref_cold cold;
        List.iter2
          (fun (name, p_ref, _) (name', p, stats) ->
            assert (name = name');
            if p <> p_ref then
              fail
                (Printf.sprintf "cache-warm bit-identity (%s, jobs=%d)" name jobs)
                "cache on=%.17g off=%.17g" p p_ref;
            if stats.Engine.Response.cache_misses <> 0 then
              fail
                (Printf.sprintf "cache-warm hit rate (%s, jobs=%d)" name jobs)
                "warm pass still missed %d sub-answer(s)"
                stats.Engine.Response.cache_misses;
            ran "cache-warm %s" name)
          ref_cold warm)
      [ 1; 2 ];
    (* The cache-off engine is itself deterministic across repeat evals. *)
    List.iter2
      (fun (name, p_cold, _) (_, p_warm, _) ->
        if p_cold <> p_warm then
          fail
            (Printf.sprintf "cache-off repeat bit-identity (%s)" name)
            "first=%.17g second=%.17g" p_cold p_warm)
      ref_cold ref_warm;
    let answer =
      match ref_cold with (_, p, _) :: _ -> p | [] -> assert false
    in
    if answer <> grouped then
      fail "engine bit-identity" "engine=%.17g eval=%.17g" answer grouped;
    ran "engine";
    let count = match ref_cold with _ :: (_, c, _) :: _ -> c | _ -> assert false in
    let count_ref = Ppd.Solve.count_sessions ~group:true db query (Util.Rng.make 42) in
    if count <> count_ref then
      fail "count bit-identity" "engine=%.17g eval=%.17g" count count_ref;
    ran "count";
    (* Anytime deadline row: a case carrying a serving deadline must come
       back as a normal typed answer, never an exception — bit-identical
       to the plain evaluation when the exact route met the SLO, inside
       the final z=5 CI when sampling (final or timed out). Out_of_time
       is caught here, not by the outer Skip handler: an expired exact
       route only skips this row, not the whole case. *)
    (match case.Ppd.Case.deadline with
    | None -> ()
    | Some span -> (
        match
          Engine.with_engine Engine.Config.default (fun engine ->
              Engine.serve engine
                (Engine.Request.make ~budget ~slo:(`Deadline span) db query))
        with
        | exception Util.Timer.Out_of_time -> ()
        | served -> (
            match served.Engine.anytime with
            | None -> fail "deadline row" "SLO request served without anytime block"
            | Some a ->
                (match a.Engine.status with
                | `Cancelled ->
                    fail "deadline row" "uncancelled serve reported `Cancelled"
                | `Final when a.Engine.rounds = 0 ->
                    let p = Engine.Response.answer_float served.Engine.response in
                    if p <> answer then
                      fail "deadline exact-route bit-identity"
                        "served=%.17g eval=%.17g" p answer
                | `Final | `Timeout ->
                    if answer < a.Engine.ci_lo -. eps || answer > a.Engine.ci_hi +. eps
                    then
                      fail "deadline CI containment"
                        "exact=%.17g outside [%.6g, %.6g]" answer a.Engine.ci_lo
                        a.Engine.ci_hi);
                ran "deadline")));
    Pass
      {
        sessions = List.length compiled.Ppd.Compile.requests;
        nontrivial = !nontrivial;
        checks = !n_checks;
        answer;
      }
  with
  | Failed (check, detail) -> Fail { check; detail }
  | Skipped msg -> Skip msg
  | Util.Timer.Out_of_time -> Skip "solver budget exhausted"
  | Failure msg -> Skip ("solver gave up: " ^ msg)
  | Hardq.Dp_table.State_explosion _ as e ->
      Skip ("solver gave up: " ^ Printexc.to_string e)

(* Language/planner differential sweep (make lang-diff / hardq_qa
   lang-diff): the case's datalog query is pushed through the text
   frontend and the tractability planner, and every compiled-plan
   answer must be bit-identical to the direct solver path evaluating
   the same semantics. Returns the plan node kinds exercised so the
   corpus sweep can assert coverage. *)
let lang_diff ?(eps = 1e-9) ?(budget = 0.5) (case : Ppd.Case.t) =
  let { Ppd.Case.db; query; _ } = case in
  let n_checks = ref 0 in
  let ran fmt = Printf.ksprintf (fun _ -> incr n_checks) fmt in
  let kinds = ref [] in
  try
    let text = Ppd.Query.to_string query in
    (* Parse + canonical-rendering round trip, for the base text and
       every derived wrapper. *)
    let parse what s =
      match Lang.Parser.parse s with
      | Ok ast ->
          (match Lang.Parser.parse (Lang.Ast.to_string ast) with
          | Ok ast' when Lang.Ast.equal ast' ast -> ()
          | Ok _ ->
              fail (what ^ " round-trip") "%S reparses to a different AST"
                (Lang.Ast.to_string ast)
          | Error e ->
              fail (what ^ " round-trip") "%S: %s" (Lang.Ast.to_string ast)
                (Lang.Ast.error_to_string e));
          incr n_checks;
          ast
      | Error e -> fail what "%S: %s" s (Lang.Ast.error_to_string e)
    in
    let ast = parse "datalog embeds" text in
    if not (Lang.Ast.equal ast (Lang.Ast.of_query query)) then
      fail "embed bit-identity" "parse %S differs from of_query" text;
    incr n_checks;
    let compile ast =
      let plan =
        try Plan.compile db ast with
        | Ppd.Compile.Unsupported msg ->
            raise (Skipped ("plan unsupported: " ^ msg))
        | Ppd.Compile.Grounding_too_large msg -> raise (Skipped ("grounding: " ^ msg))
      in
      if String.length (Plan.explain plan) = 0 then
        fail "explain non-empty" "%S" (Lang.Ast.to_string ast);
      incr n_checks;
      kinds := Plan.node_kinds plan @ !kinds;
      plan
    in
    Engine.with_engine Engine.Config.default @@ fun engine ->
    let direct task = Engine.eval engine (Engine.Request.make ~task ~budget db query) in
    let planned plan = Engine.eval engine (Engine.Request.of_plan ~budget plan) in
    let bit name a b =
      if a <> b then fail name "plan=%.17g direct=%.17g" a b;
      ran "%s" name
    in
    (* Boolean: the base text compiles to a plan whose engine answer is
       bit-identical to the direct [`Auto] evaluation. *)
    let resp_dir = direct Engine.Request.Boolean in
    let p_dir = Engine.Response.answer_float resp_dir in
    let plan = compile ast in
    bit "plan vs direct (boolean)"
      (Engine.Response.answer_float (planned plan))
      p_dir;
    (* count: aggregate root over the same per-session marginals. *)
    let plan_count = compile (parse "count prefix" ("count " ^ text)) in
    bit "plan vs direct (count)"
      (Engine.Response.answer_float (planned plan_count))
      (Engine.Response.answer_float (direct Engine.Request.Count));
    (* top(2): ranked answers agree session by session. *)
    let plan_top = compile (parse "top prefix" ("top(2) " ^ text)) in
    let ranked_plan = Engine.Response.ranked (planned plan_top) in
    let ranked_dir =
      Engine.Response.ranked
        (direct (Engine.Request.Top_k { k = 2; strategy = `Naive }))
    in
    if List.length ranked_plan <> List.length ranked_dir then
      fail "plan vs direct (top-k)" "plan ranked %d sessions, direct %d"
        (List.length ranked_plan) (List.length ranked_dir);
    List.iter2
      (fun ((s : Ppd.Database.session), p) ((s' : Ppd.Database.session), p') ->
        if s.Ppd.Database.key <> s'.Ppd.Database.key || p <> p' then
          fail "plan vs direct (top-k)" "plan=%.17g direct=%.17g" p p';
        ran "top-k row")
      ranked_plan ranked_dir;
    (* Modals: indicators over the exact probability. *)
    bit "possibly indicator"
      (Engine.Response.answer_float
         (planned (compile (parse "possibly prefix" ("possibly " ^ text)))))
      (if p_dir > 0. then 1. else 0.);
    bit "certainly indicator"
      (Engine.Response.answer_float
         (planned (compile (parse "certainly prefix" ("certainly " ^ text)))))
      (if p_dir >= 1. -. 1e-9 then 1. else 0.);
    (* sum(key 0): the plan-level fold must replicate the
       [Ppd.Aggregate.over_sessions] fold over the direct marginals. *)
    let plan_sum = compile (parse "sum prefix" ("sum(key 0) " ^ text)) in
    let sum_ref =
      List.fold_left
        (fun acc ((s : Ppd.Database.session), p) ->
          match Ppd.Aggregate.session_key_value ~index:0 s with
          | Some v -> acc +. (p *. v)
          | None -> acc)
        0. resp_dir.Engine.Response.per_session
    in
    bit "sum(key 0) fold" (Engine.Response.answer_float (planned plan_sum)) sum_ref;
    (* using rejection: the sampling leaf is deterministic (digest-keyed
       RNG), in range, and lands within a gross-error band of exact. *)
    let plan_rs = compile (parse "using prefix" ("using rejection " ^ text)) in
    let p_rs = Engine.Response.answer_float (planned plan_rs) in
    let p_rs' = Engine.Response.answer_float (planned plan_rs) in
    if p_rs <> p_rs' then
      fail "sample determinism" "first=%.17g second=%.17g" p_rs p_rs';
    ran "sample determinism";
    if not (p_rs >= -.eps && p_rs <= 1. +. eps) then
      fail "sample in [0,1]" "%.17g" p_rs;
    ran "sample range";
    if abs_float (p_rs -. p_dir) > 0.25 then
      fail "sample gross error" "rejection=%.17g exact=%.17g (band 0.25)" p_rs p_dir;
    ran "sample band";
    (* Rank derivations (synthesized over the case's item domain): the
       O(m²) insertion DP and the mixed-atom enumeration leaf, each
       against brute-force enumeration of the same predicate. Skipped
       silently when the database is outside the rank fragment (several
       p-relations) — the pattern checks above still stand. *)
    let m = Ppd.Database.m db in
    (if m >= 2 && m <= brute_max then
       try
         let item i = Ppd.Query.Const (Ppd.Database.id_of_item db i) in
         let k = (m + 1) / 2 in
         let mk body =
           {
             Lang.Ast.name = "Q";
             head = [];
             task = Lang.Ast.Prob;
             modal = None;
             using = None;
             body = [ body ];
           }
         in
         let rank_ast =
           mk [ Lang.Ast.Rank { item = item 0; op = Prefs.Rank_pred.Le; k } ]
         in
         let plan_rank = compile (parse "rank" (Lang.Ast.to_string rank_ast)) in
         if plan_rank.Plan.leaf <> Plan.Rank_poly then
           fail "rank routing" "rank-only query routed to %s"
             (Plan.leaf_name plan_rank.Plan.leaf);
         ran "rank routing";
         let pred = { Prefs.Rank_pred.item = 0; op = Prefs.Rank_pred.Le; k } in
         List.iter
           (fun ((s : Ppd.Database.session), p) ->
             let model = Rim.Mallows.to_rim s.Ppd.Database.model in
             let p_ref = Hardq.Brute.prob_pred model (Prefs.Rank_pred.holds pred) in
             if not (close eps p p_ref) then
               fail "rank-dp vs brute" "dp=%.17g brute=%.17g" p p_ref;
             ran "rank-dp")
           (planned plan_rank).Engine.Response.per_session;
         let mixed_ast =
           mk
             [
               Lang.Ast.Prefers { left = item 0; right = item 1 };
               Lang.Ast.Rank { item = item 1; op = Prefs.Rank_pred.Ge; k = 2 };
             ]
         in
         let plan_mix = compile (parse "mixed rank" (Lang.Ast.to_string mixed_ast)) in
         if plan_mix.Plan.leaf <> Plan.Enumerate then
           fail "mixed rank routing" "mixed query at m=%d routed to %s" m
             (Plan.leaf_name plan_mix.Plan.leaf);
         ran "mixed routing";
         let rank2 = { Prefs.Rank_pred.item = 1; op = Prefs.Rank_pred.Ge; k = 2 } in
         let pred_ref r =
           Prefs.Ranking.prefers r 0 1 && Prefs.Rank_pred.holds rank2 r
         in
         List.iter
           (fun ((s : Ppd.Database.session), p) ->
             let model = Rim.Mallows.to_rim s.Ppd.Database.model in
             let p_ref = Hardq.Brute.prob_pred model pred_ref in
             if p <> p_ref then
               fail "enumerate vs brute" "plan=%.17g brute=%.17g" p p_ref;
             ran "enumerate")
           (planned plan_mix).Engine.Response.per_session
       with Skipped _ -> ());
    ( Pass
        {
          sessions = resp_dir.Engine.Response.stats.Engine.Response.sessions;
          nontrivial = List.length resp_dir.Engine.Response.per_session;
          checks = !n_checks;
          answer = p_dir;
        },
      !kinds )
  with
  | Failed (check, detail) -> (Fail { check; detail }, !kinds)
  | Skipped msg -> (Skip msg, !kinds)
  | Util.Timer.Out_of_time -> (Skip "solver budget exhausted", !kinds)
  | Failure msg -> (Skip ("solver gave up: " ^ msg), !kinds)
  | Hardq.Dp_table.State_explosion _ as e ->
      (Skip ("solver gave up: " ^ Printexc.to_string e), !kinds)

let fails ?eps ?budget ?extra case =
  match check ?eps ?budget ~approx:false ?extra case with
  | Fail _ -> true
  | Pass _ | Skip _ -> false

(* Sharded scatter-gather sweep (make shard-diff / hardq_qa shard-diff):
   the case is evaluated through engines at shard counts {1, 2, 4} — an
   unsharded engine is the one-shard coordinator — and every answer —
   Boolean, Count-Session, and top-k naive and with 1- and 2-edge
   bounds — must be byte-identical to the sequential [Ppd.Solve]
   reference, ranked keys included. On top of bit-identity, the scatter-gather
   accounting is asserted: all shards answered (exact answer, no
   failures), and the two-phase top-k never deep-queried a shard whose
   phase-1 upper bound fell below the final k-th answer by more than the
   prune slack (nor pruned one whose bound was within it). *)
let shard_diff ?(budget = 0.5) (case : Ppd.Case.t) =
  let { Ppd.Case.db; query; _ } = case in
  let n_checks = ref 0 in
  let ran fmt = Printf.ksprintf (fun _ -> incr n_checks) fmt in
  try
    (* Sequential references: one shared rng in session order, exactly
       what the coordinator's index-ordered merge must reproduce. *)
    let count_ref = Ppd.Solve.count_sessions ~group:true db query (Util.Rng.make 42) in
    let bool_ref = Ppd.Solve.boolean_prob ~group:true db query (Util.Rng.make 42) in
    let k = 3 in
    let topk_ref =
      (Ppd.Solve.top_k ~strategy:`Naive ~k db query (Util.Rng.make 42)).Ppd.Solve.results
    in
    let eval_at shards task =
      let cfg =
        Engine.Config.(default |> with_cache false |> with_shards shards)
      in
      Engine.with_engine cfg (fun engine ->
          Engine.eval engine (Engine.Request.make ~task ~budget ~seed:42 db query))
    in
    List.iter
      (fun shards ->
        let tag check = Printf.sprintf "%s (shards=%d)" check shards in
        let summary_of (resp : Engine.Response.t) check =
          match resp.Engine.Response.stats.Engine.Response.shards with
          | Some s when shards > 1 ->
              if s.Shard.shards <> shards then
                fail (tag check) "summary reports %d shard(s), engine configured %d"
                  s.Shard.shards shards;
              if not s.Shard.exact then
                fail (tag check)
                  "healthy cluster produced a partial answer (%d answered, %d \
                   timed out, %d errored)"
                  s.Shard.answered s.Shard.timed_out s.Shard.errored;
              Some s
          | Some _ -> fail (tag check) "unsharded engine attached a shards block"
          | None when shards > 1 ->
              fail (tag check) "sharded engine returned no shards block"
          | None -> None
        in
        (* Count-Session: scattered partials re-folded in global session
           order must equal the sequential left fold bitwise. *)
        let resp_c = eval_at shards Engine.Request.Count in
        ignore (summary_of resp_c "count summary");
        let c = Engine.Response.answer_float resp_c in
        if c <> count_ref then
          fail (tag "count bit-identity") "sharded=%.17g reference=%.17g" c count_ref;
        ran "count";
        (* Boolean: same merge, different fold. *)
        let resp_b = eval_at shards Engine.Request.Boolean in
        ignore (summary_of resp_b "boolean summary");
        let p = Engine.Response.answer_float resp_b in
        if p <> bool_ref then
          fail (tag "boolean bit-identity") "sharded=%.17g reference=%.17g" p bool_ref;
        ran "boolean";
        (* Top-k, both strategies: the ranked list must match the naive
           sequential reference row for row — the strict cross-shard
           pruning keeps every tie at the k-th probability. *)
        List.iter
          (fun (sname, strategy) ->
            let resp =
              eval_at shards (Engine.Request.Top_k { k; strategy })
            in
            let summary = summary_of resp (sname ^ " summary") in
            let ranked = Engine.Response.ranked resp in
            if List.length ranked <> List.length topk_ref then
              fail
                (tag (sname ^ " length"))
                "sharded ranked %d session(s), reference %d" (List.length ranked)
                (List.length topk_ref);
            (* Probabilities and ranked keys must match the naive
               reference row for row: every shard count, the unsharded
               one-partition engine included, ranks equal-probability
               ties in global session order, the naive order. *)
            List.iter2
              (fun ((s : Ppd.Database.session), p)
                   ((s' : Ppd.Database.session), p') ->
                if p <> p' then
                  fail
                    (tag (sname ^ " bit-identity"))
                    "sharded=%.17g reference=%.17g" p p';
                if s.Ppd.Database.key <> s'.Ppd.Database.key then
                  fail
                    (tag (sname ^ " rank order"))
                    "ranked a different session than the reference at p=%.17g" p)
              ranked topk_ref;
            ran "topk %s" sname;
            (* Prune-counter invariant (two-phase bound pruning): with a
               full ranking, a deep-queried shard's phase-1 bound must
               be at least the final k-th answer less the prune slack,
               and a pruned shard's below that. *)
            match summary with
            | Some s when strategy <> `Naive && List.length ranked >= k -> (
                match s.Shard.kth with
                | None -> fail (tag "kth recorded") "full ranking but kth = None"
                | Some kth ->
                    Array.iteri
                      (fun i outcome ->
                        let bound = s.Shard.best_bounds.(i) in
                        match outcome with
                        | Shard.Skipped_by_bound ->
                            if bound >= kth -. Hardq.Upper_bound.prune_slack then
                              fail
                                (tag "no over-pruning")
                                "shard %d pruned with bound %.17g >= kth %.17g" i
                                bound kth
                        | Shard.Answered ->
                            if bound < kth -. Hardq.Upper_bound.prune_slack then
                              fail
                                (tag "no wasted deep query")
                                "shard %d deep-queried with bound %.17g < kth %.17g"
                                i bound kth
                        | Shard.Timed_out | Shard.Errored _ -> ())
                      s.Shard.outcomes;
                    (* pruned + deep = phase-1 survivors holding sessions;
                       empty shards are neither. *)
                    if s.Shard.pruned_shards + s.Shard.deep_shards > s.Shard.shards
                    then
                      fail
                        (tag "phase accounting")
                        "pruned %d + deep %d > shards %d" s.Shard.pruned_shards
                        s.Shard.deep_shards s.Shard.shards;
                    ran "prune invariant")
            | _ -> ())
          [
            ("topk-naive", `Naive);
            ("topk-edges", `Edges 1);
            ("topk-edges2", `Edges 2);
          ])
      [ 1; 2; 4 ];
    let sessions =
      try List.length (Ppd.Compile.compile db query).Ppd.Compile.requests
      with _ -> 0
    in
    Pass
      { sessions; nontrivial = sessions; checks = !n_checks; answer = count_ref }
  with
  | Failed (check, detail) -> Fail { check; detail }
  | Skipped msg -> Skip msg
  | Ppd.Compile.Unsupported msg -> Skip ("compile unsupported: " ^ msg)
  | Ppd.Compile.Grounding_too_large msg -> Skip ("grounding: " ^ msg)
  | Util.Timer.Out_of_time -> Skip "solver budget exhausted"
  | Failure msg -> Skip ("solver gave up: " ^ msg)
  | Hardq.Dp_table.State_explosion _ as e ->
      Skip ("solver gave up: " ^ Printexc.to_string e)

(* Anytime serving sweep (make anytime-diff / hardq_qa anytime-diff):
   the case is served under accuracy SLOs with a forced sampling solver
   and every streamed frame is checked against the exact answer.
   Frames are compared as their wire bytes (the NDJSON progress line),
   so the determinism rows pin the whole codec, not just the floats. *)
let anytime ?(eps = 1e-9) ?(budget = 0.5) (case : Ppd.Case.t) =
  let { Ppd.Case.db; query; _ } = case in
  let n_checks = ref 0 in
  let ran fmt = Printf.ksprintf (fun _ -> incr n_checks) fmt in
  try
    (* Rejection with a nominal n: the SLO drives the draw count, and an
       Approx solver routes even tractable verdicts to the sampler. *)
    let sampling = Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 1 }) in
    let serve ~jobs ~solver slo =
      let cfg = Engine.Config.(default |> with_jobs jobs) in
      Engine.with_engine cfg (fun engine ->
          let frames = ref [] in
          let on_frame f = frames := f :: !frames in
          let served =
            Engine.serve engine ~on_frame
              (Engine.Request.make ~budget ~solver ~slo db query)
          in
          (served, List.rev !frames))
    in
    (* Exact reference; cases out of reach under the budget are skipped
       by the Out_of_time handler below, not failed. *)
    let exact =
      Engine.with_engine Engine.Config.default (fun engine ->
          Engine.Response.answer_float
            (Engine.eval engine (Engine.Request.make ~budget db query)))
    in
    let frame_bytes f =
      Server.Json.to_string
        (Server.Protocol.progress_to_json (Server.Protocol.progress_of_frame f))
    in
    let served1, frames1 = serve ~jobs:1 ~solver:sampling (`Ci_width 0.15) in
    (match served1.Engine.anytime with
    | None -> fail "anytime block" "SLO request served without anytime block"
    | Some a ->
        if a.Engine.status = `Cancelled then
          fail "anytime status" "uncancelled serve reported `Cancelled");
    if frames1 = [] then fail "anytime frames" "sampling serve emitted no frames";
    ran "frames";
    (* (a) Containment: every streamed z=5 CI brackets the exact answer. *)
    List.iteri
      (fun i (f : Hardq.Anytime.frame) ->
        if exact < f.Hardq.Anytime.ci_lo -. eps || exact > f.Hardq.Anytime.ci_hi +. eps
        then
          fail "anytime CI containment" "frame %d: exact=%.17g outside [%.6g, %.6g]"
            i exact f.Hardq.Anytime.ci_lo f.Hardq.Anytime.ci_hi;
        ran "containment %d" i)
      frames1;
    (* (b) Widths non-increasing, frame to frame — exactly, the envelope
       intersection guarantees it without tolerance. *)
    ignore
      (List.fold_left
         (fun prev (f : Hardq.Anytime.frame) ->
           let w = f.Hardq.Anytime.ci_hi -. f.Hardq.Anytime.ci_lo in
           if w > prev then
             fail "anytime monotone widths" "width widened %.17g -> %.17g" prev w;
           ran "width";
           w)
         infinity frames1);
    (* (c) Fixed seed => byte-identical frame sequence at any pool
       width. *)
    let _, frames2 = serve ~jobs:2 ~solver:sampling (`Ci_width 0.15) in
    let bytes1 = List.map frame_bytes frames1
    and bytes2 = List.map frame_bytes frames2 in
    if bytes1 <> bytes2 then begin
      let rec diverge = function
        | a :: _, b :: _ when a <> b ->
            Printf.sprintf "; first divergence %s vs %s" a b
        | _ :: xs, _ :: ys -> diverge (xs, ys)
        | _ -> ""
      in
      fail "anytime pool determinism" "jobs=1 emitted %d frame(s), jobs=2 %d%s"
        (List.length bytes1) (List.length bytes2)
        (diverge (bytes1, bytes2))
    end;
    ran "pool determinism";
    (* Prefix: a tighter target extends the looser target's sequence —
       the round schedule is target-independent, so the loose run's
       frames are byte-for-byte the head of the tight run's. *)
    let _, loose = serve ~jobs:1 ~solver:sampling (`Ci_width 0.3) in
    let _, tight = serve ~jobs:1 ~solver:sampling (`Ci_width 0.1) in
    let rec is_prefix = function
      | [], _ -> true
      | _, [] -> false
      | a :: xs, b :: ys -> a = b && is_prefix (xs, ys)
    in
    if not (is_prefix (List.map frame_bytes loose, List.map frame_bytes tight))
    then
      fail "anytime prefix" "loose (0.3, %d frames) is not a prefix of tight (0.1, %d)"
        (List.length loose) (List.length tight);
    ran "prefix";
    (* Exact route: under an exact solver a tractable verdict answers as
       a point interval, zero rounds, no frames, bit-identical to eval.
       Hard verdicts still sample; their final CI must contain exact. *)
    let served_ex, frames_ex =
      serve ~jobs:1 ~solver:(Hardq.Solver.Exact `Auto) (`Ci_width 0.15)
    in
    (match served_ex.Engine.anytime with
    | None -> fail "anytime block" "exact-solver SLO served without anytime block"
    | Some a when a.Engine.rounds = 0 ->
        let p = Engine.Response.answer_float served_ex.Engine.response in
        if frames_ex <> [] then
          fail "exact-route frames" "emitted %d frame(s)" (List.length frames_ex);
        if p <> exact then
          fail "exact-route bit-identity" "served=%.17g eval=%.17g" p exact;
        if a.Engine.ci_lo <> p || a.Engine.ci_hi <> p then
          fail "exact-route point CI" "[%.17g, %.17g] around %.17g" a.Engine.ci_lo
            a.Engine.ci_hi p;
        ran "exact route"
    | Some a ->
        if exact < a.Engine.ci_lo -. eps || exact > a.Engine.ci_hi +. eps then
          fail "hard-route CI containment" "exact=%.17g outside [%.6g, %.6g]" exact
            a.Engine.ci_lo a.Engine.ci_hi;
        ran "hard route");
    let stats = served1.Engine.response.Engine.Response.stats in
    Pass
      {
        sessions = stats.Engine.Response.sessions;
        nontrivial = stats.Engine.Response.distinct;
        checks = !n_checks;
        answer = exact;
      }
  with
  | Failed (check, detail) -> Fail { check; detail }
  | Skipped msg -> Skip msg
  | Util.Timer.Out_of_time -> Skip "solver budget exhausted"
  | Failure msg -> Skip ("solver gave up: " ^ msg)
  | Hardq.Dp_table.State_explosion _ as e ->
      Skip ("solver gave up: " ^ Printexc.to_string e)

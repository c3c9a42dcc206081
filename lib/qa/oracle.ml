(* Differential + metamorphic checks over one case. See oracle.mli for
   the matrix; DESIGN.md §10 documents it prose-side. *)

type solver_fn = Rim.Model.t -> Prefs.Labeling.t -> Prefs.Pattern_union.t -> float

type report = {
  sessions : int;
  nontrivial : int;
  checks : int;
  answer : float;
  kinds : string list;
}

type result =
  | Pass of report
  | Fail of { check : string; detail : string }
  | Skip of string

exception Failed of string * string
exception Skipped of string

let brute_max = 7

(* The coverage tag of a case whose served general-kind union sends an
   IE term to RIM matching ({!Hardq.General.route}). *)
let rim_matching = "rim-matching"

let fail check fmt = Printf.ksprintf (fun detail -> raise (Failed (check, detail))) fmt

let close eps a b = abs_float (a -. b) <= eps

(* Exact answers below [small_p] are also held to [small_p_rel]
   relative agreement. *)
let small_p = 1e-6
let small_p_rel = 1e-12

(* Checks must be a pure function of the case: the sampling streams are
   keyed on the case content, not on any ambient state. *)
let case_rng case = Util.Rng.derive (Hashtbl.hash (Ppd.Case.digest case)) 1


(* Count one assertion that ran; the label only documents the call site. *)
let ran checks fmt = Printf.ksprintf (fun _ -> incr checks) fmt

(* ------------------------------------------------------------------ *)
(* Per-union solver matrix                                             *)
(* ------------------------------------------------------------------ *)

(* Every applicable solver on every compiled per-session union, plus the
   metamorphic invariants. Returns the number of nontrivial unions. *)
let union_rows ~eps ~budget ~approx ~extra ~checks ~kinds ~approx_rng db
    compiled =
  let b () = Util.Timer.budget budget in
  let ran fmt = ran checks fmt in
  let lab = Ppd.Database.labeling db in
  let m = Ppd.Database.m db in
  (* Work-sharing pool for the intra-query parallel solver rows. Created
     lazily (most cases never get past cheaper failures) and shut down on
     every exit path. *)
  let pool = lazy (Engine.Pool.create ~jobs:2 ()) in
  let par () = Engine.Pool.sharer (Lazy.force pool) in
  Fun.protect ~finally:(fun () ->
      if Lazy.is_val pool then Engine.Pool.shutdown (Lazy.force pool))
  @@ fun () ->
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
          (* General answers a term whose nodes each name one item of σ
             by RIM matching, so the rows above no longer run the
             signature DP on it. Keep that DP under its own gates on
             exactly those terms: sequential, pooled and boxed runs give
             the same bytes and agree with the routed term at 1e-12
             relative. A served (general-kind) union taking the route
             marks the case for the corpus coverage sweep. *)
          List.iter
            (fun c ->
              match Hardq.General.route model lab c with
              | Hardq.General.Labels -> ()
              | route ->
                  (match route with
                  | Hardq.General.Items _ when kind = Prefs.Pattern_union.General ->
                      kinds := rim_matching :: !kinds
                  | _ -> ());
                  let signature ?par ?kernel () =
                    Hardq.Pattern_solver.prob ~budget:(b ()) ?par ?kernel model lab c
                  in
                  let p_seq = signature () in
                  let boxed = Hardq.Kernel.Boxed in
                  List.iter
                    (fun (what, p) ->
                      if p <> p_seq then
                        fail
                          (Printf.sprintf "signature DP %s bit-identity" what)
                          "session %d term %s: seq=%.17g %s=%.17g" i
                          (Format.asprintf "%a" Prefs.Pattern.pp c)
                          p_seq what p;
                      ran "signature %s" what)
                    [
                      ("par", signature ~par:(par ()) ());
                      ("kernel", signature ~kernel:boxed ());
                      ("par kernel", signature ~par:(par ()) ~kernel:boxed ());
                    ];
                  let routed = Hardq.General.solve_term ~budget:(b ()) model lab c in
                  if
                    routed <> p_seq
                    && abs_float (routed -. p_seq)
                       > 1e-12 *. Float.max (abs_float routed) (abs_float p_seq)
                  then
                    fail "routed term vs signature DP"
                      "session %d term %s: routed=%.17g signature=%.17g" i
                      (Format.asprintf "%a" Prefs.Pattern.pp c)
                      routed p_seq;
                  ran "routed term")
            (List.sort_uniq Prefs.Pattern.compare
               (List.map fst (Hardq.General.conjunctions u)));
          let ref_name, ref_p = List.hd matrix in
          if not (ref_p >= -.eps && ref_p <= 1. +. eps) then
            fail "probability in [0,1]" "session %d: %s returned %.17g" i ref_name
              ref_p;
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
          (* Near 0 an absolute eps cannot see a wrong answer: below
             [small_p] every exact row must also agree with the
             reference to [small_p_rel] relative. *)
          if ref_p < small_p then
            List.iter
              (fun (name, p) ->
                let scale = Float.max (abs_float p) (abs_float ref_p) in
                if p <> ref_p && abs_float (p -. ref_p) > small_p_rel *. scale
                then
                  fail
                    (Printf.sprintf "%s vs %s (relative, p < %g)" name ref_name
                       small_p)
                    "session %d: %s=%.17g %s=%.17g (relative error %.3g > %g)" i
                    name p ref_name ref_p
                    (abs_float (p -. ref_p) /. scale)
                    small_p_rel;
                ran "relative %s" name)
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
            (* Rejection sampling is a binomial draw: judge it with the
               exact binomial interval at the z=5 level (false alarms
               negligible at every p, 0 and 1 included). *)
            let n_rs = 500 in
            let est =
              Hardq.Solver.approx_prob (Hardq.Solver.Rejection { n = n_rs }) mal lab u
                approx_rng
            in
            let p_hat = Hardq.Estimate.value est in
            let lo, hi =
              Util.Stats.clopper_pearson_ci
                ~k:(Float.to_int (Float.round (p_hat *. float_of_int n_rs)))
                ~n:n_rs ()
            in
            if ref_p < lo -. eps || ref_p > hi +. eps then
              fail "rejection within Clopper-Pearson CI"
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
  !nontrivial

(* ------------------------------------------------------------------ *)
(* Engine lattice                                                      *)
(* ------------------------------------------------------------------ *)

let top_k = 3

type expect =
  | Exact_float of float
  | Exact_ranked of (Ppd.Database.session * float) list
  | Same_everywhere of float option ref
      (** a sampler row: no reference, but one value in every cell *)

(* One lattice row: a task from both request sources. [zero_miss] rows
   must be served entirely from the store on the warm pass. *)
type row = {
  name : string;
  expect : expect;
  zero_miss : bool;
  query : Engine.Request.t;  (** [Request.make] over the datalog CQ *)
  plan : Engine.Request.t;  (** [Request.of_plan] over the parsed text *)
}

(* Shard accounting of one sharded answer: every shard answered, and the
   two-phase top-k never deep-queried a shard whose phase-1 bound fell
   below the final k-th answer by more than the prune slack, nor pruned
   one whose bound was within it. An unsharded engine attaches no block. *)
let check_shards ~checks ~tag ~shards ~(task : Engine.Request.task) ~n_ranked
    (resp : Engine.Response.t) =
  match resp.Engine.Response.stats.Engine.Response.shards with
  | None when shards = 1 -> ()
  | None -> fail (tag "shards block") "sharded engine returned no shards block"
  | Some _ when shards = 1 ->
      fail (tag "shards block") "unsharded engine attached a shards block"
  | Some s -> (
      if s.Shard.shards <> shards then
        fail (tag "shards summary") "summary reports %d shard(s), engine configured %d"
          s.Shard.shards shards;
      if not s.Shard.exact then
        fail (tag "shards summary")
          "healthy cluster produced a partial answer (%d answered, %d timed out, \
           %d errored)"
          s.Shard.answered s.Shard.timed_out s.Shard.errored;
      ran checks "summary";
      match task with
      | Engine.Request.Top_k { strategy = `Edges _; _ } when n_ranked >= top_k -> (
          match s.Shard.kth with
          | None -> fail (tag "kth recorded") "full ranking but kth = None"
          | Some kth ->
              let slack = Hardq.Upper_bound.prune_slack in
              Array.iteri
                (fun i outcome ->
                  let bound = s.Shard.best_bounds.(i) in
                  match outcome with
                  | Shard.Skipped_by_bound when bound >= kth -. slack ->
                      fail (tag "no over-pruning")
                        "shard %d pruned with bound %.17g >= kth %.17g" i bound kth
                  | Shard.Answered when bound < kth -. slack ->
                      fail (tag "no wasted deep query")
                        "shard %d deep-queried with bound %.17g < kth %.17g" i bound
                        kth
                  | _ -> ())
                s.Shard.outcomes;
              (* pruned + deep = phase-1 survivors holding sessions;
                 empty shards are neither. *)
              if s.Shard.pruned_shards + s.Shard.deep_shards > s.Shard.shards then
                fail (tag "phase accounting") "pruned %d + deep %d > shards %d"
                  s.Shard.pruned_shards s.Shard.deep_shards s.Shard.shards;
              ran checks "prune invariant")
      | _ -> ())

(* jobs {1, 2} x shards {1, 2, 4} x cache {cap0, cold, warm} x source
   {query, plan} (cap0: both store tiers at capacity 0, perfbench's
   cold-exact configuration): every cell evaluates every row, and every
   answer must equal the reference byte for byte — ranked session keys
   included.

   Metamorphic step: after each cold pass a fresh label that every item
   carries and no row reads is interned into [db]. Answer keys hold only
   the labels a union names, so the warm pass must still report zero
   misses on [zero_miss] rows, and a sampler row's later cells (cold
   solves under a grown labeling) must still agree with its first: a
   digest folding more than the key holds would move them. *)
let lattice ~checks ~db rows =
  let id_attr = (Ppd.Relation.attrs (Ppd.Database.items db)).(0) in
  let unread = ref 0 in
  let intern_unread () =
    incr unread;
    let fresh = Ppd.Value.Str (Printf.sprintf "qa-unread-%d" !unread) in
    ignore
      (Ppd.Database.intern_label db
         (Ppd.Database.Attr_cmp (id_attr, Ppd.Value.Neq, fresh)))
  in
  let cell ~jobs ~shards ~cache engine row source =
    let tag check =
      Printf.sprintf "%s %s (jobs=%d, shards=%d, cache=%s, source=%s)" row.name
        check jobs shards cache source
    in
    let resp =
      Engine.eval engine (if source = "query" then row.query else row.plan)
    in
    let ranked = Engine.Response.ranked resp in
    (match row.expect with
    | Exact_float r ->
        let v = Engine.Response.answer_float resp in
        if v <> r then fail (tag "bit-identity") "engine=%.17g reference=%.17g" v r
    | Same_everywhere first -> (
        let v = Engine.Response.answer_float resp in
        match !first with
        | None -> first := Some v
        | Some r ->
            if v <> r then
              fail (tag "bit-identity") "engine=%.17g first cell=%.17g" v r)
    | Exact_ranked r ->
        if List.length ranked <> List.length r then
          fail (tag "length") "engine ranked %d session(s), reference %d"
            (List.length ranked) (List.length r);
        List.iter2
          (fun ((s : Ppd.Database.session), p) ((s' : Ppd.Database.session), p') ->
            if p <> p' then
              fail (tag "bit-identity") "engine=%.17g reference=%.17g" p p';
            if s.Ppd.Database.key <> s'.Ppd.Database.key then
              fail (tag "rank order")
                "ranked a different session than the reference at p=%.17g" p)
          ranked r);
    ran checks "cell";
    if cache = "warm" && row.zero_miss then begin
      let misses = resp.Engine.Response.stats.Engine.Response.cache_misses in
      if misses <> 0 then
        fail (tag "warm hit rate") "warm pass still missed %d sub-answer(s)" misses;
      ran checks "warm"
    end;
    check_shards ~checks ~tag ~shards ~task:row.query.Engine.Request.task
      ~n_ranked:(List.length ranked) resp
  in
  let pass ~jobs ~shards ~cache engine =
    List.iter
      (fun source ->
        List.iter (fun row -> cell ~jobs ~shards ~cache engine row source) rows)
      [ "query"; "plan" ]
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun shards ->
          let cfg = Engine.Config.(default |> with_jobs jobs |> with_shards shards) in
          Engine.with_engine
            Engine.Config.(cfg |> with_answer_capacity 0 |> with_term_capacity 0)
            (pass ~jobs ~shards ~cache:"cap0");
          Engine.with_engine cfg (fun engine ->
              pass ~jobs ~shards ~cache:"cold" engine;
              intern_unread ();
              pass ~jobs ~shards ~cache:"warm" engine))
        [ 1; 2; 4 ])
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* SLO rows                                                            *)
(* ------------------------------------------------------------------ *)

let serve engine ~budget ?(solver = Hardq.Solver.default_exact) slo db query =
  let frames = ref [] in
  let served =
    Engine.serve engine
      ~on_frame:(fun f -> frames := f :: !frames)
      (Engine.Request.make ~budget ~solver ~slo db query)
  in
  (served, List.rev !frames)

let frame_bytes f =
  Server.Json.to_string
    (Server.Protocol.progress_to_json (Server.Protocol.progress_of_frame f))

(* A case's serving deadline (always) and, with [approx], accuracy-SLO
   serves under a forced sampler (frames compared as their wire bytes, so
   the determinism rows pin the codec too), each at pool widths 1 and 2. *)
let slo_rows ~eps ~budget ~approx ~checks ~exact (case : Ppd.Case.t) =
  let { Ppd.Case.db; query; _ } = case in
  let ran fmt = ran checks fmt in
  (* One engine per pool width serves every row at that width; each is
     created on first use and shut down on every exit path. *)
  let engines =
    Array.init 2 (fun i ->
        lazy (Engine.create Engine.Config.(default |> with_jobs (i + 1))))
  in
  Fun.protect ~finally:(fun () ->
      Array.iter (fun e -> if Lazy.is_val e then Engine.shutdown (Lazy.force e)) engines)
  @@ fun () ->
  let serve ~jobs = serve (Lazy.force engines.(jobs - 1)) ~budget in
  let contains what (a : Engine.anytime) =
    if exact < a.Engine.ci_lo -. eps || exact > a.Engine.ci_hi +. eps then
      fail what "exact=%.17g outside [%.6g, %.6g]" exact a.Engine.ci_lo
        a.Engine.ci_hi
  in
  let anytime_of what (served : Engine.served) =
    match served.Engine.anytime with
    | None -> fail what "SLO request served without anytime block"
    | Some { Engine.status = `Cancelled; _ } ->
        fail what "uncancelled serve reported `Cancelled"
    | Some a -> a
  in
  (* An exact-route serve is frameless, zero rounds, and answers the
     plain evaluation as a point interval. *)
  let exact_route what (served : Engine.served) frames (a : Engine.anytime) =
    let p = Engine.Response.answer_float served.Engine.response in
    if frames <> [] then fail what "emitted %d frame(s)" (List.length frames);
    if p <> exact then fail what "served=%.17g eval=%.17g" p exact;
    if a.Engine.ci_lo <> p || a.Engine.ci_hi <> p then
      fail what "point CI [%.17g, %.17g] around %.17g" a.Engine.ci_lo
        a.Engine.ci_hi p
  in
  (* The sampling path runs on the calling thread whatever the pool
     width, so a deadline serve that sampled at jobs 1 (for up to its
     whole span) is not repeated at jobs 2; its pool-width determinism is
     the [`Ci_width] rows' business. *)
  let deadline_sampled = ref false in
  List.iter
    (fun jobs ->
      let tag what = Printf.sprintf "%s (jobs=%d)" what jobs in
      (* Deadline: a normal typed answer, never an exception. Out_of_time
         is caught here, not by the outer Skip handler: an expired exact
         route only skips this row, not the whole case. *)
      (match case.Ppd.Case.deadline with
      | Some span when not !deadline_sampled -> (
          match serve ~jobs (`Deadline span) db query with
          | exception Util.Timer.Out_of_time -> ()
          | served, frames ->
              let a = anytime_of (tag "deadline row") served in
              if a.Engine.status = `Final && a.Engine.rounds = 0 then
                exact_route (tag "deadline exact route") served frames a
              else begin
                deadline_sampled := true;
                contains (tag "deadline CI containment") a
              end;
              ran "deadline")
      | _ -> ());
      (* Exact route under an exact solver: tractable verdicts answer as
         a point interval; hard verdicts sample, and their final CI must
         contain the exact answer. *)
      if approx then begin
        let served, frames = serve ~jobs (`Ci_width 0.15) db query in
        let a = anytime_of (tag "exact-solver SLO") served in
        if a.Engine.rounds = 0 then exact_route (tag "exact route") served frames a
        else contains (tag "hard-route CI containment") a;
        ran "exact route"
      end)
    [ 1; 2 ];
  if approx then begin
    (* Rejection with a nominal n: the SLO drives the draw count, and an
       Approx solver routes even tractable verdicts to the sampler. *)
    let solver = Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 1 }) in
    let sampled ~jobs width =
      let served, frames = serve ~jobs ~solver (`Ci_width width) db query in
      ignore (anytime_of (Printf.sprintf "anytime block (jobs=%d)" jobs) served);
      if frames = [] then fail "anytime frames" "sampling serve emitted no frames";
      frames
    in
    (* Every streamed CI brackets the exact answer and nests inside the
       previous frame's — exactly: the envelope intersection guarantees
       it, and with it widths that never widen. *)
    let check_frames what frames =
      ignore
        (List.fold_left
           (fun (i, lo, hi) (f : Hardq.Anytime.frame) ->
             let flo = f.Hardq.Anytime.ci_lo and fhi = f.Hardq.Anytime.ci_hi in
             if exact < flo -. eps || exact > fhi +. eps then
               fail "anytime CI containment"
                 "%s, frame %d: exact=%.17g outside [%.6g, %.6g]" what i exact flo fhi;
             if flo < lo || fhi > hi then
               fail "anytime nested intervals"
                 "%s, frame %d: [%.17g, %.17g] leaves [%.17g, %.17g]" what i flo fhi lo
                 hi;
             ran "frame";
             (i + 1, flo, fhi))
           (0, neg_infinity, infinity) frames)
    in
    let frames1 = sampled ~jobs:1 0.15 in
    check_frames "target 0.15" frames1;
    (* Fixed seed => byte-identical frame sequence at any pool width. *)
    let bytes1 = List.map frame_bytes frames1
    and bytes2 = List.map frame_bytes (sampled ~jobs:2 0.15) in
    if bytes1 <> bytes2 then begin
      let rec diverge = function
        | a :: _, b :: _ when a <> b -> Printf.sprintf "; first divergence %s vs %s" a b
        | _ :: xs, _ :: ys -> diverge (xs, ys)
        | _ -> ""
      in
      fail "anytime pool determinism" "jobs=1 emitted %d frame(s), jobs=2 %d%s"
        (List.length bytes1) (List.length bytes2)
        (diverge (bytes1, bytes2))
    end;
    ran "pool determinism";
    (* Prefix: the round schedule is target-independent, so a looser
       target's frames are byte-for-byte the head of a tighter one's. *)
    let tight = sampled ~jobs:1 0.1 in
    check_frames "target 0.1" tight;
    let loose = List.map frame_bytes (sampled ~jobs:1 0.3)
    and tight = List.map frame_bytes tight in
    let rec is_prefix = function
      | [], _ -> true
      | _, [] -> false
      | a :: xs, b :: ys -> a = b && is_prefix (xs, ys)
    in
    if not (is_prefix (loose, tight)) then
      fail "anytime prefix" "loose (0.3, %d frames) is not a prefix of tight (0.1, %d)"
        (List.length loose) (List.length tight);
    ran "prefix"
  end

(* ------------------------------------------------------------------ *)
(* Language rows                                                       *)
(* ------------------------------------------------------------------ *)

(* Parse + canonical-rendering round trip. *)
let parse ~checks what s =
  match Lang.Parser.parse s with
  | Error e -> fail what "%S: %s" s (Lang.Ast.error_to_string e)
  | Ok ast ->
      (match Lang.Parser.parse (Lang.Ast.to_string ast) with
      | Ok ast' when Lang.Ast.equal ast' ast -> ()
      | Ok _ ->
          fail (what ^ " round-trip") "%S reparses to a different AST"
            (Lang.Ast.to_string ast)
      | Error e ->
          fail (what ^ " round-trip") "%S: %s" (Lang.Ast.to_string ast)
            (Lang.Ast.error_to_string e));
      ran checks "round-trip";
      ast

(* The derivations the lattice does not cover: modal indicators, the
   [sum(key 0)] fold, the [using rejection] leaf and synthesized rank
   atoms. [compile] raises [Skipped] on a plan outside the fragment; a
   derivation that does skips only itself. *)
let language_rows ~eps ~budget ~approx ~checks ~compile ~exact db query text =
  let ran fmt = ran checks fmt in
  let parse = parse ~checks in
  let derived f = try f () with Skipped _ -> () in
  Engine.with_engine Engine.Config.default @@ fun engine ->
  let planned plan = Engine.eval engine (Engine.Request.of_plan ~budget plan) in
  let answer prefix =
    Engine.Response.answer_float (planned (compile (parse prefix (prefix ^ text))))
  in
  let bit name a b =
    if a <> b then fail name "plan=%.17g direct=%.17g" a b;
    ran "%s" name
  in
  bit "possibly indicator" (answer "possibly ") (if exact > 0. then 1. else 0.);
  (* [Certainly] tolerates inclusion–exclusion residue around 1. *)
  bit "certainly indicator" (answer "certainly ")
    (if exact >= 1. -. 1e-9 then 1. else 0.);
  derived (fun () ->
      (* The plan-level fold must replicate [Ppd.Aggregate.over_sessions]
         over the direct marginals. *)
      let sum = answer "sum(key 0) " in
      let direct = Engine.eval engine (Engine.Request.make ~budget db query) in
      bit "sum(key 0) fold" sum
        (List.fold_left
           (fun acc ((s : Ppd.Database.session), p) ->
             match Ppd.Aggregate.session_key_value ~index:0 s with
             | Some v -> acc +. (p *. v)
             | None -> acc)
           0. direct.Engine.Response.per_session));
  if approx then begin
    (* using rejection: the clause compiles to exactly the solver table's
       rejection leaf, which is deterministic (digest-keyed RNG), in
       range, and within a gross-error band of exact. Once the compiled
       leaf is checked, it runs at 2000 draws per session instead of the
       table's 50000: the band needs no more. *)
    let plan = compile (parse "using prefix" ("using rejection " ^ text)) in
    (match (Hardq.Solver.of_string "rejection", plan.Plan.leaf) with
    | Ok (Hardq.Solver.Approx a), Plan.Sample b when a = b -> ()
    | _, leaf ->
        let shown =
          match leaf with
          | Plan.Sample (Hardq.Solver.Rejection { n }) ->
              Printf.sprintf "rejection n=%d" n
          | leaf -> Plan.leaf_name leaf
        in
        fail "using routing" "using rejection compiled to %s, not the solver table's leaf"
          shown);
    let plan =
      Plan.with_leaf plan (Plan.Sample (Hardq.Solver.Rejection { n = 2000 }))
    in
    let p_rs = Engine.Response.answer_float (planned plan) in
    let p_rs' = Engine.Response.answer_float (planned plan) in
    if p_rs <> p_rs' then
      fail "sample determinism" "first=%.17g second=%.17g" p_rs p_rs';
    if not (p_rs >= -.eps && p_rs <= 1. +. eps) then
      fail "sample in [0,1]" "%.17g" p_rs;
    if abs_float (p_rs -. exact) > 0.25 then
      fail "sample gross error" "rejection=%.17g exact=%.17g (band 0.25)" p_rs exact;
    ran "sample"
  end;
  (* Rank derivations over the case's item domain: the O(m²) insertion
     DP and the mixed-atom enumeration leaf, each against brute-force
     enumeration of the same predicate. *)
  let m = Ppd.Database.m db in
  if m >= 2 && m <= brute_max then
    derived (fun () ->
        let item i = Ppd.Query.Const (Ppd.Database.id_of_item db i) in
        let k = (m + 1) / 2 in
        let plan_of body =
          compile
            (parse "rank"
               (Lang.Ast.to_string
                  {
                    Lang.Ast.name = "Q";
                    head = [];
                    task = Lang.Ast.Prob;
                    modal = None;
                    using = None;
                    body = [ body ];
                  }))
        in
        let against_brute what ~leaf plan pred ~same =
          if plan.Plan.leaf <> leaf then
            fail (what ^ " routing") "routed to %s at m=%d"
              (Plan.leaf_name plan.Plan.leaf) m;
          List.iter
            (fun ((s : Ppd.Database.session), p) ->
              let p_ref =
                Hardq.Brute.prob_pred (Rim.Mallows.to_rim s.Ppd.Database.model) pred
              in
              if not (same p p_ref) then
                fail (what ^ " vs brute") "plan=%.17g brute=%.17g" p p_ref;
              ran "%s" what)
            (planned plan).Engine.Response.per_session
        in
        let rank = { Prefs.Rank_pred.item = 0; op = Prefs.Rank_pred.Le; k } in
        against_brute "rank-dp" ~leaf:Plan.Rank_poly
          (plan_of [ Lang.Ast.Rank { item = item 0; op = Prefs.Rank_pred.Le; k } ])
          (Prefs.Rank_pred.holds rank) ~same:(close eps);
        let rank2 = { Prefs.Rank_pred.item = 1; op = Prefs.Rank_pred.Ge; k = 2 } in
        against_brute "enumerate" ~leaf:Plan.Enumerate
          (plan_of
             [
               Lang.Ast.Prefers { left = item 0; right = item 1 };
               Lang.Ast.Rank { item = item 1; op = Prefs.Rank_pred.Ge; k = 2 };
             ])
          (fun r -> Prefs.Ranking.prefers r 0 1 && Prefs.Rank_pred.holds rank2 r)
          ~same:( = ))

(* ------------------------------------------------------------------ *)
(* The oracle                                                          *)
(* ------------------------------------------------------------------ *)

let check ?(eps = 1e-9) ?(budget = 0.5) ?(approx = true) ?(extra = [])
    (case : Ppd.Case.t) =
  let { Ppd.Case.db; query; _ } = case in
  let checks = ref 0 in
  let kinds = ref [] in
  try
    let compiled =
      try Ppd.Compile.compile db query with
      | Ppd.Compile.Unsupported msg -> raise (Skipped ("compile unsupported: " ^ msg))
      | Ppd.Compile.Grounding_too_large msg -> raise (Skipped ("grounding: " ^ msg))
    in
    let nontrivial =
      union_rows ~eps ~budget ~approx ~extra ~checks ~kinds
        ~approx_rng:(case_rng case) db compiled
    in
    (* Query level: grouped and ungrouped sequential evaluation are the
       same computation, and the reference for every engine cell. *)
    let rng () = Util.Rng.make 42 in
    let boolean = Ppd.Solve.boolean_prob ~group:true db query (rng ()) in
    let ungrouped = Ppd.Solve.boolean_prob ~group:false db query (rng ()) in
    if boolean <> ungrouped then
      fail "grouping bit-identity" "grouped=%.17g ungrouped=%.17g" boolean ungrouped;
    ran checks "group";
    let count = Ppd.Solve.count_sessions ~group:true db query (rng ()) in
    let ranked =
      Exact_ranked
        (Ppd.Solve.top_k ~strategy:`Naive ~k:top_k db query (rng ())).Ppd.Solve.results
    in
    (* The text frontend: the datalog query parses as language text,
       round-trips, embeds exactly as [of_query], and its derivations
       compile to plans whose node kinds the corpus sweep unions. *)
    let text = Ppd.Query.to_string query in
    let ast = parse ~checks "datalog embeds" text in
    if not (Lang.Ast.equal ast (Lang.Ast.of_query query)) then
      fail "embed bit-identity" "parse %S differs from of_query" text;
    ran checks "embed";
    let compile ?hint ast =
      let plan =
        try Plan.compile ?hint db ast with
        | Ppd.Compile.Unsupported msg -> raise (Skipped ("plan unsupported: " ^ msg))
        | Ppd.Compile.Grounding_too_large msg -> raise (Skipped ("grounding: " ^ msg))
      in
      if String.length (Plan.explain plan) = 0 then
        fail "explain non-empty" "%S" (Lang.Ast.to_string ast);
      ran checks "explain";
      kinds := Plan.node_kinds plan @ !kinds;
      plan
    in
    let plan_of prefix = compile (parse ~checks (prefix ^ "prefix") (prefix ^ text)) in
    let base = compile ast in
    let row ?(zero_miss = false) ?(solver = Hardq.Solver.default_exact) name task
        expect plan =
      (* A plan stating its own task ([count], [top(k)]) keeps it; the
         request built from it must still be the row's task. *)
      let planned = Engine.Request.of_plan ~task ~budget plan in
      if planned.Engine.Request.task <> task then
        fail (name ^ " plan task") "%S projects onto a different engine task"
          (Lang.Ast.to_string plan.Plan.ast);
      {
        name;
        expect;
        zero_miss;
        query = Engine.Request.make ~task ~solver ~budget db query;
        plan = planned;
      }
    in
    let top strategy = Engine.Request.Top_k { k = top_k; strategy } in
    let rows =
      [
        row ~zero_miss:true "boolean" Engine.Request.Boolean (Exact_float boolean)
          base;
        row ~zero_miss:true "count" Engine.Request.Count
          (Exact_float count) (plan_of "count ");
        row "top-k naive" (top `Naive) ranked
          (plan_of (Printf.sprintf "top(%d) " top_k));
        row "top-k 1-edge" (top (`Edges 1)) ranked base;
        row "top-k 2-edge" (top (`Edges 2)) ranked base;
      ]
      @
      if approx then
        (* A sampler whose per-sub-problem RNG is derived from the cache
           digest, precisely so cache warmth cannot shift its stream. *)
        let solver =
          Hardq.Solver.Approx
            (Hardq.Solver.Mis_lite { d = 2; n_per = 50; compensate = false })
        in
        [
          row ~zero_miss:true ~solver "mis-lite" Engine.Request.Boolean
            (Same_everywhere (ref None)) (compile ~hint:solver ast);
        ]
      else []
    in
    lattice ~checks ~db rows;
    slo_rows ~eps ~budget ~approx ~checks ~exact:boolean case;
    language_rows ~eps ~budget ~approx ~checks ~compile ~exact:boolean db query text;
    Pass
      {
        sessions = List.length compiled.Ppd.Compile.requests;
        nontrivial;
        checks = !checks;
        answer = boolean;
        kinds = List.sort_uniq compare !kinds;
      }
  with
  | Failed (check, detail) -> Fail { check; detail }
  | Skipped msg -> Skip msg
  | Util.Timer.Out_of_time -> Skip "solver budget exhausted"
  | Failure msg -> Skip ("solver gave up: " ^ msg)
  | Hardq.Dp_table.State_explosion _ as e ->
      Skip ("solver gave up: " ^ Printexc.to_string e)

let fails ?eps ?budget ?extra case =
  match check ?eps ?budget ~approx:false ?extra case with
  | Fail _ -> true
  | Pass _ | Skip _ -> false

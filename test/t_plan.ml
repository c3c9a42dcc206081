(* The tractability planner: shape routing, bit-identity with the direct
   solver paths, commutative plan digests, cache behaviour of permuted
   but semantically equal queries, and the differential value of the
   planner seam — a planted misclassification must change (or abort) the
   answer, which is exactly what the QA oracle's engine lattice detects
   (`make qa-replay`). A datalog CQ lowers through the same planner
   ([Plan.of_query]), its solver kept as asked. *)

let tc = Alcotest.test_case

let tiny_items names =
  Ppd.Relation.make ~name:"C" ~attrs:[ "item" ]
    (List.map (fun n -> [ Ppd.Value.Str n ]) names)

let tiny_db ?(m = 3) ?(phi = [ 0.5; 0.3 ]) () =
  let names = List.init m (fun i -> String.make 1 (Char.chr (Char.code 'a' + i))) in
  let sessions =
    List.mapi
      (fun i phi ->
        {
          Ppd.Database.key = [| Ppd.Value.Str (Printf.sprintf "s%d" i) |];
          model =
            Rim.Mallows.make
              ~center:
                (Prefs.Ranking.of_array
                   (Util.Rng.permutation (Util.Rng.make (i + 1)) m))
              ~phi;
        })
      phi
  in
  Ppd.Database.make ~items:(tiny_items names)
    ~preferences:[ Ppd.Database.p_relation ~name:"P" ~key_attrs:[ "sid" ] sessions ]
    ()

let parse text =
  match Lang.Parser.parse text with
  | Ok ast -> ast
  | Error e -> Alcotest.failf "parse %S: %s" text (Lang.Ast.error_to_string e)

let compile ?hint db text = Plan.compile ?hint db (parse text)

let check_bits what expected actual =
  if expected <> actual then
    Alcotest.failf "%s: expected %.17g, got %.17g" what expected actual

(* ------------------------------------------------------------------ *)
(* Shape routing                                                       *)
(* ------------------------------------------------------------------ *)

let unit_routing () =
  let db = tiny_db () in
  let leaf text = (compile db text).Plan.leaf in
  (match leaf "Q() :- prefers(\"a\", \"b\")." with
  | Plan.Exact `Two_label -> ()
  | l -> Alcotest.failf "single edge routed to %s" (Plan.leaf_name l));
  (match leaf "Q() :- P(s; \"a\"; \"b\"), P(s; \"a\"; \"c\")." with
  | Plan.Exact `Bipartite -> ()
  | l -> Alcotest.failf "star routed to %s" (Plan.leaf_name l));
  (match leaf "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\")." with
  | Plan.Union_ie -> ()
  | l -> Alcotest.failf "chain routed to %s" (Plan.leaf_name l));
  (match leaf "using rejection Q() :- prefers(\"a\", \"b\")." with
  | Plan.Sample (Hardq.Solver.Rejection _) -> ()
  | l -> Alcotest.failf "using rejection routed to %s" (Plan.leaf_name l));
  (match leaf "Q() :- rank(\"a\") <= 2." with
  | Plan.Rank_poly -> ()
  | l -> Alcotest.failf "rank-only routed to %s" (Plan.leaf_name l));
  match leaf "Q() :- prefers(\"a\", \"b\") and rank(\"b\") >= 2." with
  | Plan.Enumerate -> ()
  | l -> Alcotest.failf "mixed rank routed to %s" (Plan.leaf_name l)

let unit_roots_and_verdicts () =
  let db = tiny_db () in
  let body = "Q() :- prefers(\"a\", \"b\")." in
  let with_prefix p = compile db (p ^ body) in
  Alcotest.(check string) "plain root" "boolean" (Plan.root_name (with_prefix ""));
  Alcotest.(check string)
    "count root" "aggregate"
    (Plan.root_name (with_prefix "count "));
  Alcotest.(check string)
    "sum root" "aggregate"
    (Plan.root_name (with_prefix "sum(key 0) "));
  Alcotest.(check string)
    "top root" "top-k"
    (Plan.root_name (with_prefix "top(2) "));
  Alcotest.(check (list string))
    "node kinds" [ "top-k"; "exact" ]
    (Plan.node_kinds (with_prefix "top(2) "));
  (match (with_prefix "").Plan.verdict with
  | Plan.Tractable _ -> ()
  | v -> Alcotest.failf "two-label verdict %s" (Plan.verdict_string v));
  (match (compile db "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\").").Plan.verdict with
  | Plan.Hard _ -> ()
  | v -> Alcotest.failf "chain verdict %s" (Plan.verdict_string v));
  match (with_prefix "using rejection ").Plan.verdict with
  | Plan.Estimated _ -> ()
  | v -> Alcotest.failf "sampling verdict %s" (Plan.verdict_string v)

let unit_explain_mentions_shape () =
  let db = tiny_db () in
  let plan = compile db "count Q() :- prefers(\"a\", \"b\")." in
  let text = Plan.explain plan in
  List.iter
    (fun needle ->
      if not (Helpers.contains text needle) then
        Alcotest.failf "explain misses %S in:\n%s" needle text)
    [ "verdict:"; "tractable"; Plan.leaf_name plan.Plan.leaf; "Aggregate[count]" ]

(* ------------------------------------------------------------------ *)
(* Plan evaluation vs the direct paths                                 *)
(* ------------------------------------------------------------------ *)

let unit_plan_matches_direct () =
  let db = tiny_db () in
  List.iter
    (fun text ->
      let q = Ppd.Parser.parse text in
      let plan = compile db text in
      Engine.with_engine Engine.Config.default (fun engine ->
          List.iter
            (fun task ->
              let direct =
                Engine.eval engine (Engine.Request.make ~task db q)
              in
              let planned =
                Engine.eval engine (Engine.Request.of_plan ~task plan)
              in
              check_bits
                (Printf.sprintf "%s (%s)" text
                   (match task with
                   | Engine.Request.Boolean -> "boolean"
                   | Engine.Request.Count -> "count"
                   | Engine.Request.Top_k _ -> "top-k"))
                (Engine.Response.answer_float direct)
                (Engine.Response.answer_float planned);
              List.iter2
                (fun (_, p) (_, p') -> check_bits "per-session" p p')
                direct.Engine.Response.per_session
                planned.Engine.Response.per_session)
            [ Engine.Request.Boolean; Engine.Request.Count ]))
    [
      "Q() :- P(_; \"a\"; \"b\").";
      "Q() :- P(s; \"a\"; \"b\"), P(s; \"a\"; \"c\").";
      "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\").";
    ]

let unit_planted_misroute_detected () =
  (* The seam the differential suite leans on: force a chain-shaped
     (general) plan through the two-label DP. The misrouted solver must
     not silently reproduce the true answer — it either aborts or
     diverges, and either way the oracle's plan-source cells trip. *)
  let db = tiny_db () in
  let text = "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\")." in
  let plan = compile db text in
  let truth =
    Engine.with_engine Engine.Config.default (fun engine ->
        Engine.Response.answer_float
          (Engine.eval engine (Engine.Request.make db (Ppd.Parser.parse text))))
  in
  let planted = Plan.with_leaf plan (Plan.Exact `Two_label) in
  let got =
    try
      Some
        (Engine.with_engine Engine.Config.default (fun engine ->
             Engine.Response.answer_float
               (Engine.eval engine (Engine.Request.of_plan planted))))
    with _ -> None
  in
  match got with
  | None -> () (* the misrouted solver rejected the union outright *)
  | Some p ->
      if p = truth then
        Alcotest.failf
          "planted misclassification is undetectable: two-label on a chain \
           still returns %.17g" p

(* ------------------------------------------------------------------ *)
(* Commutative normalization: digests and cache traffic                *)
(* ------------------------------------------------------------------ *)

let unit_digest_commutative () =
  let db = tiny_db () in
  let d text = Hardq.Digest.to_hex (Plan.digest (compile db text)) in
  Alcotest.(check string)
    "conjunct order is normalized away"
    (d "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\").")
    (d "Q() :- P(s; \"b\"; \"c\"), P(s; \"a\"; \"b\").");
  Alcotest.(check string)
    "disjunct order is normalized away"
    (d "Q() :- prefers(\"a\", \"b\") or prefers(\"b\", \"c\").")
    (d "Q() :- prefers(\"b\", \"c\") or prefers(\"a\", \"b\").");
  if
    d "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\")."
    = d "Q() :- P(s; \"a\"; \"c\"), P(s; \"b\"; \"c\")."
  then Alcotest.fail "different conjunctions must digest differently"

let cache_stats (resp : Engine.Response.t) =
  let s = resp.Engine.Response.stats in
  (s.Engine.Response.cache_hits, s.Engine.Response.cache_misses)

let unit_permuted_query_cache_hit () =
  (* Same conjunction, permuted atom order: the canonicalized cache key
     must let the second evaluation run entirely from the store. *)
  let db = tiny_db () in
  let q1 = Ppd.Parser.parse "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\")." in
  let q2 = Ppd.Parser.parse "Q() :- P(s; \"b\"; \"c\"), P(s; \"a\"; \"b\")." in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let r1 = Engine.eval engine (Engine.Request.make db q1) in
      let _, m1 = cache_stats r1 in
      Alcotest.(check bool) "cold run solves" true (m1 > 0);
      let r2 = Engine.eval engine (Engine.Request.make db q2) in
      let h2, m2 = cache_stats r2 in
      Alcotest.(check int) "permuted twin misses nothing" 0 m2;
      Alcotest.(check bool) "permuted twin hits" true (h2 > 0);
      check_bits "same answer"
        (Engine.Response.answer_float r1)
        (Engine.Response.answer_float r2))

let unit_permuted_disjuncts_cache_hit () =
  (* Disjunction commutes too: the plans merge per-session unions in
     canonical form, so `A or B` and `B or A` share cache entries. *)
  let db = tiny_db () in
  let plan1 = compile db "Q() :- prefers(\"a\", \"b\") or prefers(\"b\", \"c\")." in
  let plan2 = compile db "Q() :- prefers(\"b\", \"c\") or prefers(\"a\", \"b\")." in
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let r1 = Engine.eval engine (Engine.Request.of_plan plan1) in
      let _, m1 = cache_stats r1 in
      Alcotest.(check bool) "cold run solves" true (m1 > 0);
      let r2 = Engine.eval engine (Engine.Request.of_plan plan2) in
      let h2, m2 = cache_stats r2 in
      Alcotest.(check int) "permuted disjuncts miss nothing" 0 m2;
      Alcotest.(check bool) "permuted disjuncts hit" true (h2 > 0);
      check_bits "same answer"
        (Engine.Response.answer_float r1)
        (Engine.Response.answer_float r2))

(* ------------------------------------------------------------------ *)
(* Rank DP vs enumeration                                              *)
(* ------------------------------------------------------------------ *)

let prop_rank_dp_vs_brute =
  Helpers.qtest ~count:300 "rank-dp matches brute enumeration"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Util.Rng.make seed in
      let m = 2 + Util.Rng.int rng 5 in
      let mal =
        Rim.Mallows.make
          ~center:(Prefs.Ranking.of_array (Util.Rng.permutation rng m))
          ~phi:(0.05 +. Util.Rng.float rng 0.9)
      in
      let model = Rim.Mallows.to_rim mal in
      let item = Util.Rng.int rng m in
      let op =
        Util.Rng.pick rng
          [|
            Prefs.Rank_pred.Le; Lt; Ge; Gt; Eq; Neq;
          |]
      in
      let k = 1 + Util.Rng.int rng m in
      let dp = Hardq.Rank_dp.prob model ~item ~op ~k in
      let brute =
        Hardq.Brute.prob_pred model
          (Prefs.Rank_pred.holds { Prefs.Rank_pred.item; op; k })
      in
      if abs_float (dp -. brute) > 1e-9 then
        QCheck.Test.fail_reportf
          "m=%d item=%d %s %d: dp=%.17g brute=%.17g" m item
          (Prefs.Rank_pred.op_to_string op)
          k dp brute;
      true)

(* ------------------------------------------------------------------ *)
(* Datalog CQs lower through the planner                               *)
(* ------------------------------------------------------------------ *)

let unit_of_query_keeps_solver () =
  let db = tiny_db () in
  List.iter
    (fun text ->
      let q = Ppd.Parser.parse text in
      let direct = (Ppd.Compile.compile db q).Ppd.Compile.requests in
      List.iter
        (fun solver ->
          let plan = Plan.of_query ~solver db q in
          if Plan.routed_solver plan <> solver then
            Alcotest.failf "%s: routed to %s, asked for %s" text
              (Hardq.Solver.name (Plan.routed_solver plan))
              (Hardq.Solver.name solver);
          match plan.Plan.lowered with
          | Plan.Predicates _ -> Alcotest.failf "%s: lowered to predicate rows" text
          | Plan.Patterns rows ->
              let shape (r : Ppd.Compile.request) =
                ( r.Ppd.Compile.session.Ppd.Database.key,
                  Option.map
                    (fun u ->
                      List.map
                        (fun g -> (Prefs.Pattern.nodes g, Prefs.Pattern.edges g))
                        (Prefs.Pattern_union.patterns u))
                    r.Ppd.Compile.union )
              in
              if List.map shape rows <> List.map shape direct then
                Alcotest.failf "%s: planner rows differ from Ppd.Compile's" text)
        [
          Hardq.Solver.Exact `Auto;
          Hardq.Solver.Exact `General;
          Hardq.Solver.Approx (Hardq.Solver.Rejection { n = 100 });
        ])
    [
      "Q() :- P(_; \"a\"; \"b\").";
      "Q() :- P(s; \"a\"; \"b\"), P(s; \"a\"; \"c\").";
      "Q() :- P(s; \"a\"; \"b\"), P(s; \"b\"; \"c\").";
    ];
  match
    Plan.of_query ~solver:Hardq.Solver.default_exact db
      (Ppd.Parser.parse "Q(x) :- P(_; x; _).")
  with
  | _ -> Alcotest.fail "a head variable compiled"
  | exception Ppd.Compile.Unsupported _ -> ()

(* Every failure of an evaluation subcommand is typed like the server's
   error replies: exit status 1 and a one-line diagnosis on stderr, never
   an uncaught exception. [answers] grounds head variables, so its
   unsupported query names a head variable that is no item attribute. *)
let unit_cli_failures_exit_one () =
  let binary = Helpers.binary "hardq_cli.exe" in
  if not (Sys.file_exists binary) then Alcotest.failf "binary not found at %s" binary;
  let polls = [ "--dataset"; "polls"; "--size"; "6"; "--sessions"; "5" ] in
  let head_var =
    "Q(l) :- P(_, _; l; r), C(l, p, \"M\", _, _, _), C(r, p, \"F\", _, _, _)."
  in
  let session_head =
    "Q(v) :- P(v, _; l; r), C(l, p, \"M\", _, _, _), C(r, p, \"F\", _, _, _)."
  in
  (* Three chained preference atoms: 60^3 grounding assignments. *)
  let chain =
    "Q() :- P(_; x; y), P(_; y; z), P(_; z; w), M(x, t1, a, g), M(y, t1, b, \
     h), M(y, t2, b, h), M(z, t2, c, k), M(z, t3, c, k), M(w, t3, d, l)."
  in
  let movielens = [ "--dataset"; "movielens"; "--size"; "60"; "--sessions"; "2" ] in
  let cases =
    List.concat_map
      (fun cmd ->
        [
          ("parse error", cmd, polls, "Q() :- P(_; x; _", "parse error: ");
          ( "unsupported CQ",
            cmd,
            polls,
            (if cmd = "answers" then session_head else head_var),
            "unsupported query: " );
          ("grounding too large", cmd, movielens, chain, "unsupported query: grounding");
        ])
      [ "eval"; "topk"; "answers"; "query" ]
  in
  List.iter
    (fun (what, cmd, dataset, text, diagnosis) ->
      let query = if cmd = "query" then [ text ] else [ "--query"; text ] in
      let err = Filename.temp_file "hardq_test_cli" ".err" in
      Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
      let code =
        Sys.command
          (String.concat " " (List.map Filename.quote ((binary :: cmd :: dataset) @ query))
          ^ " >/dev/null 2>" ^ Filename.quote err)
      in
      let msg = In_channel.with_open_text err In_channel.input_all in
      let case = Printf.sprintf "hardq %s, %s" cmd what in
      Alcotest.(check int) (case ^ ": exit status") 1 code;
      if
        String.index_opt (String.trim msg) '\n' <> None
        || Helpers.contains msg "internal error"
        || not (String.starts_with ~prefix:diagnosis msg)
      then Alcotest.failf "%s: want one line starting %S, got %S" case diagnosis msg)
    cases

(* ------------------------------------------------------------------ *)
(* Concurrent label interning                                          *)
(* ------------------------------------------------------------------ *)

(* Plans compile (and intern labels) on several server workers at once
   against one resident database. Four domains compile distinct queries,
   each with fresh comparison labels and a shared equality label: ids
   must stay dense, every label's item set must be exact, and every
   plan must answer what a sequential compile on a fresh copy answers. *)
let unit_concurrent_interning () =
  let fresh () = Datasets.Polls.generate ~n_candidates:10 ~n_voters:20 ~seed:3 () in
  let text d i =
    let k = 20 + (13 * d) + i in
    Printf.sprintf
      "count Q() :- P(_, _; x; y), C(x, _, \"M\", a, _, _), a >= %d, C(y, _, \"F\", \
       b, _, _), b < %d."
      k (k + 7)
  in
  let n_domains = 4 and per_domain = 12 in
  let shared = fresh () in
  let plans =
    List.init n_domains (fun d ->
        Domain.spawn (fun () ->
            List.init per_domain (fun i -> (text d i, compile shared (text d i)))))
    |> List.concat_map Domain.join
  in
  let reference = fresh () in
  let expected =
    List.map (fun (t, _) -> (t, compile reference t)) plans
  in
  let count_labels db =
    let rec go n =
      match Ppd.Database.label_name db n with
      | _ -> go (n + 1)
      | exception Invalid_argument _ -> n
    in
    go 0
  in
  let n = count_labels shared in
  Alcotest.(check int) "as many labels as a sequential compile" (count_labels reference) n;
  let names db = List.init n (Ppd.Database.label_name db) in
  Alcotest.(check (list string))
    "each label once" (List.sort compare (names reference))
    (List.sort_uniq compare (names shared));
  let lab = Ppd.Database.labeling shared and ref_lab = Ppd.Database.labeling reference in
  let ref_id = List.mapi (fun id name -> (name, id)) (names reference) in
  List.iteri
    (fun id name ->
      Alcotest.(check (list int))
        (Printf.sprintf "items of label %s" name)
        (Prefs.Labeling.items_with ref_lab (List.assoc name ref_id))
        (Prefs.Labeling.items_with lab id))
    (names shared);
  Engine.with_engine Engine.Config.(default |> with_jobs 1) (fun engine ->
      let answer plan =
        Engine.Response.answer_float (Engine.eval engine (Engine.Request.of_plan plan))
      in
      List.iter2
        (fun (t, plan) (_, seq) -> check_bits t (answer seq) (answer plan))
        plans expected)

(* The chain query that warm-mix serves compiles to one itemwise pattern
   per session: every IE term is a partial order over three items, so
   the general solver answers each distinct session with exactly one
   RIM-matching call and no signature DP at all. *)
let unit_chain_runs_rim_matching () =
  let db = Datasets.Polls.generate ~n_candidates:12 ~n_voters:100 ~seed:42 () in
  let plan =
    compile db
      "count Q() :- prefers(\"cand05\", \"cand02\"), prefers(\"cand02\", \"cand08\")."
  in
  Alcotest.(check string) "union-ie leaf" "union-ie" (Plan.leaf_name plan.Plan.leaf);
  Engine.with_engine
    Engine.Config.(
      default |> with_jobs 1 |> with_answer_capacity 0 |> with_term_capacity 0)
    (fun engine ->
      let before = Obs.snapshot () in
      ignore (Engine.eval engine (Engine.Request.of_plan plan));
      let d = Obs.diff before (Obs.snapshot ()) in
      let distinct = Obs.count d "engine.distinct" in
      Alcotest.(check bool) "sessions solved" true (distinct > 0);
      Alcotest.(check int) "solver.po.calls = distinct sessions" distinct
        (Obs.count d "solver.po.calls");
      Alcotest.(check int) "every flat DP call is RIM matching" distinct
        (Obs.count d "dp.flat.calls");
      Alcotest.(check int) "solver.po.dp_states = dp.flat.states"
        (Obs.count d "dp.flat.states")
        (Obs.count d "solver.po.dp_states"))

let suites =
  [
    ( "plan",
      [
        tc "shapes route to the matching leaf" `Quick unit_routing;
        tc "task prefixes pick the root node" `Quick unit_roots_and_verdicts;
        tc "explain names the shape and verdict" `Quick
          unit_explain_mentions_shape;
        tc "plan answers are bit-identical to direct" `Quick
          unit_plan_matches_direct;
        tc "a planted misclassification is detectable" `Quick
          unit_planted_misroute_detected;
        tc "plan digests normalize commutative order" `Quick
          unit_digest_commutative;
        tc "permuted conjuncts share cache entries" `Quick
          unit_permuted_query_cache_hit;
        tc "permuted disjuncts share cache entries" `Quick
          unit_permuted_disjuncts_cache_hit;
        prop_rank_dp_vs_brute;
        tc "a datalog CQ lowers with its solver kept" `Quick
          unit_of_query_keeps_solver;
        tc "hardq CLI: typed failures" `Quick
          unit_cli_failures_exit_one;
        tc "concurrent compiles intern labels densely and exactly" `Quick
          unit_concurrent_interning;
        tc "the chain query's IE terms run RIM matching" `Quick
          unit_chain_runs_rim_matching;
      ] );
  ]

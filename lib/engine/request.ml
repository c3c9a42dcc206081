(* The engine's unified request record: one value describes a complete
   evaluation job, replacing the optional-argument soup of the legacy
   [Ppd.Eval] entry points. *)

type topk_strategy =
  [ `Naive  (* evaluate every session exactly, then sort *)
  | `Edges of int  (* k-edge upper bounds first (paper §4.3.2) *) ]

type task =
  | Boolean  (* Pr(Q | D) = 1 - prod_s (1 - Pr(Q | s)) *)
  | Count  (* E[#sessions satisfying Q] = sum_s Pr(Q | s) *)
  | Top_k of { k : int; strategy : topk_strategy }
      (* Most-Probable-Session: the k sessions likeliest to satisfy Q *)

type slo =
  [ `Deadline of float
    (* relative wall-clock span in seconds: serve the best estimate
       reachable within it instead of erroring at expiry *)
  | `Ci_width of float  (* stop once the streamed CI is at most this wide *)
  ]

type t = {
  plan : Plan.t;
      (* compiled and routed when the request is built; the database is
         [plan.db] and the solver [Plan.routed_solver plan] *)
  task : task;
  budget : float;
      (* CPU seconds per solver invocation; <= 0 means no limit. Budgets are
         measured on process CPU time, which aggregates across domains, so
         under a parallel pool they expire proportionally faster. *)
  seed : int;
      (* Root of the per-session RNG splits; only approximate solvers
         consume randomness. *)
  deadline : float option;
      (* Absolute wall-clock instant ([Util.Timer.wall] scale) after which
         the evaluation aborts with [Util.Timer.Out_of_time]. The
         per-invocation [budget] cannot bound a request made of many small
         solver calls; the deadline is checked between them. *)
  slo : slo option;
      (* Accuracy SLO for [Engine.serve]: when present, hard-verdict
         requests run the resumable anytime sampler (progress frames,
         graceful deadline degradation) instead of one-shot solving.
         Ignored by [Engine.eval]. *)
}

(* The engine task a plan's own task projects onto. Aggregates ride on
   Count (they need the same per-session probabilities; the engine folds
   them by [plan.task]); Top_sessions is a naive top-k, matching the
   sequential reference. *)
let task_of_plan (p : Plan.t) =
  match p.Plan.task with
  | Lang.Ast.Prob -> Boolean
  | Lang.Ast.Count | Lang.Ast.Sum _ | Lang.Ast.Avg _ -> Count
  | Lang.Ast.Top_sessions k -> Top_k { k; strategy = `Naive }

(* [parallelism] is read by perfbench's traced replay only; there is one
   mode, so it is ignored. *)
let of_plan ?task ?(budget = 0.) ?(seed = 42) ?deadline
    ?parallelism:(_ : [ `Intra ] option) ?slo (plan : Plan.t) =
  (* An explicit task only composes with a plain [prob] plan (the wire
     protocol's "task" member next to a "q" query); a plan that states
     its own task or modal keeps it. *)
  let task =
    match (task, plan.Plan.task, plan.Plan.modal) with
    | Some t, Lang.Ast.Prob, None -> t
    | _ -> task_of_plan plan
  in
  { plan; task; budget; seed; deadline; slo }

let make ?task ?(solver = Hardq.Solver.default_exact) ?budget ?seed ?deadline
    ?parallelism ?slo db query =
  of_plan ?task ?budget ?seed ?deadline ?parallelism ?slo
    (Obs.with_span "compile" (fun () -> Plan.of_query ~solver db query))

let boolean = Boolean
let count = Count
let top_k ?(strategy = `Edges 1) k = Top_k { k; strategy }

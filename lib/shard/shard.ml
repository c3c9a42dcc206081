module Chash = Chash

(* ------------------------------------------------------------------ *)
(* Fault injection (test seam)                                         *)
(* ------------------------------------------------------------------ *)

module Inject = struct
  type fault = Drop | Delay of float | Error of string

  let table : (int, fault) Hashtbl.t = Hashtbl.create 8
  let m = Mutex.create ()
  let set ~shard fault = Mutex.protect m (fun () -> Hashtbl.replace table shard fault)
  let clear ~shard = Mutex.protect m (fun () -> Hashtbl.remove table shard)
  let reset () = Mutex.protect m (fun () -> Hashtbl.reset table)

  (* Cheap common case: every partition run pays only this probe. *)
  let find ~shard = Mutex.protect m (fun () -> Hashtbl.find_opt table shard)
end

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)
(* ------------------------------------------------------------------ *)

let c_scatters = Obs.counter "shard.scatters"
let c_gathers_partial = Obs.counter "shard.gathers.partial"
let c_timeouts = Obs.counter "shard.timeouts"
let c_errors = Obs.counter "shard.errors"
let c_shards_pruned = Obs.counter "shard.topk.shards_pruned"
let c_shards_deep = Obs.counter "shard.topk.shards_deep"
let c_sessions_pruned = Obs.counter "shard.topk.sessions_pruned"
let h_fanout = Obs.histogram "shard.scatter_fanout"

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

type t = { ring : Chash.t; assign : string -> int }

let create ?assign ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  let ring = Chash.create shards in
  { ring; assign = (match assign with Some f -> f | None -> Chash.shard_of ring) }

let shards t = Chash.shards t.ring
let ring t = t.ring
let assign t key = t.assign key

let session_key ~p_rel (s : Ppd.Database.session) =
  let b = Buffer.create 32 in
  Buffer.add_string b p_rel;
  Array.iter
    (fun v ->
      Buffer.add_char b '\x00';
      Buffer.add_string b (Ppd.Value.to_string v))
    s.Ppd.Database.key;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Coordinator policy                                                  *)
(* ------------------------------------------------------------------ *)

type outcome = Answered | Timed_out | Errored of string | Skipped_by_bound

type summary = {
  shards : int;
  answered : int;
  timed_out : int;
  errored : int;
  pruned_shards : int;
  deep_shards : int;
  pruned_sessions : int;
  solved_sessions : int;
  exact : bool;
  outcomes : outcome array;
  best_bounds : float array;
  kth : float option;
}

type prob = Ppd.Database.session -> Prefs.Pattern_union.t -> float
type batch = Ppd.Compile.request array -> float array

(* Partition compiled requests into per-shard arrays of global indices
   (global session order preserved inside each shard), pre-forcing the
   memoized Mallows -> RIM conversion so batches fanned out on other
   domains only ever read the models. Placement runs on the calling
   thread, in session order, so a stateful [assign] override sees a
   fixed call sequence. *)
let partition t ~p_rel requests =
  let buckets = Array.make (shards t) [] in
  Array.iteri
    (fun index { Ppd.Compile.session; _ } ->
      ignore (Rim.Mallows.to_rim session.Ppd.Database.model);
      let s = t.assign (session_key ~p_rel session) in
      buckets.(s) <- index :: buckets.(s))
    requests;
  Array.map (fun items -> Array.of_list (List.rev items)) buckets

(* One shard's share of a phase, under its injected fault. [Drop] and
   [Error] answer without running; a [Delay] models a late reply, so one
   that would land past the deadline times the shard out at once instead
   of sleeping. A deadline or budget expiring inside the work times out
   this shard only; any other exception is this shard's typed error.
   A failure keeps the exception that caused it, for the
   no-partition-answered rule. *)
let run_shard ?deadline shard f =
  match Inject.find ~shard with
  | Some Inject.Drop -> Error (Timed_out, Util.Timer.Out_of_time)
  | Some (Inject.Error msg) -> Error (Errored msg, Failure msg)
  | fault -> (
      match f () with
      | exception (Util.Timer.Out_of_time as e) -> Error (Timed_out, e)
      | exception e -> Error (Errored (Printexc.to_string e), e)
      | r -> (
          match (fault, deadline) with
          | Some (Inject.Delay d), Some dl when Util.Timer.wall () +. d > dl ->
              Error (Timed_out, Util.Timer.Out_of_time)
          | Some (Inject.Delay d), _ ->
              Unix.sleepf d;
              Ok r
          | _ -> Ok r))

(* Run [f] over every non-empty partition's requests, one partition
   after another on the calling thread. Each batch fans out over the
   caller's whole domain pool by itself; partitions side by side would
   each get a share of it, and a domain waiting on its own partition's
   batch cannot help another's (measured slower on two shards). Empty
   shards are never run and stay healthy. *)
let scatter ?deadline requests buckets f =
  Obs.Counter.incr c_scatters;
  Obs.Histogram.observe h_fanout
    (Array.fold_left (fun n b -> if Array.length b > 0 then n + 1 else n) 0 buckets);
  Array.mapi
    (fun s idx ->
      if Array.length idx = 0 then Ok [||]
      else
        run_shard ?deadline s (fun () -> f (Array.map (fun i -> requests.(i)) idx)))
    buckets

(* When no partition holding sessions answered there is nothing to
   degrade to: re-raise the lowest failing shard's own exception, so a
   lone partition fails exactly as an unpartitioned solve would. *)
let reraise_if_unanswered buckets outcomes failures =
  let answered = ref false in
  Array.iteri
    (fun s o -> if Array.length buckets.(s) > 0 && o = Answered then answered := true)
    outcomes;
  if not !answered then Array.iter (Option.iter raise) failures

(* The answered sessions back in global session order: the reference's
   fold order, whatever the shard count. *)
let in_order requests filled =
  let out = ref [] in
  for i = Array.length requests - 1 downto 0 do
    match filled.(i) with
    | None -> ()
    | Some p -> out := (requests.(i).Ppd.Compile.session, p) :: !out
  done;
  !out

(* The k-th best of the probabilities seen so far, [neg_infinity] below
   k of them. *)
let kth_of k probs =
  match List.nth_opt (List.sort (fun a b -> compare b a) probs) (k - 1) with
  | Some p -> p
  | None -> neg_infinity

let as_kth x = if x = neg_infinity then None else Some x

let summarize ?(pruned_shards = 0) ?(deep_shards = 0) ?(pruned_sessions = 0)
    ?(best_bounds = [||]) ?(kth = neg_infinity) ~solved_sessions t outcomes =
  let count p = Array.fold_left (fun n o -> if p o then n + 1 else n) 0 outcomes in
  let answered = count (( = ) Answered)
  and timed_out = count (( = ) Timed_out)
  and errored = count (function Errored _ -> true | _ -> false) in
  if Obs.enabled () then begin
    Obs.Counter.add c_timeouts timed_out;
    Obs.Counter.add c_errors errored;
    Obs.Counter.add c_shards_pruned pruned_shards;
    Obs.Counter.add c_shards_deep deep_shards;
    Obs.Counter.add c_sessions_pruned pruned_sessions;
    if timed_out + errored > 0 then Obs.Counter.incr c_gathers_partial
  end;
  {
    shards = shards t;
    answered;
    timed_out;
    errored;
    pruned_shards;
    deep_shards;
    pruned_sessions;
    solved_sessions;
    exact = timed_out = 0 && errored = 0;
    outcomes;
    best_bounds;
    kth = as_kth kth;
  }

let probs t ?deadline ~batch ~p_rel requests =
  let buckets = partition t ~p_rel requests in
  let results =
    Obs.with_span "shard.scatter" (fun () ->
        scatter ?deadline requests buckets batch)
  in
  let filled = Array.make (Array.length requests) None in
  let failures = Array.make (shards t) None in
  let solved = ref 0 in
  let outcomes =
    Array.mapi
      (fun s -> function
        | Ok ps ->
            solved := !solved + Array.length ps;
            Array.iteri (fun j p -> filled.(buckets.(s).(j)) <- Some p) ps;
            Answered
        | Error (o, e) ->
            failures.(s) <- Some e;
            o)
      results
  in
  reraise_if_unanswered buckets outcomes failures;
  (in_order requests filled, summarize ~solved_sessions:!solved t outcomes)

(* Deep-query one shard: items (global index, bound) arrive in
   descending bound order. Skip a session only when its bound is
   *strictly* below the strongest threshold available — the global k-th
   lower bound or the shard-local one (a subset's k-th never exceeds the
   global k-th, so both are sound); strictness keeps every tie. *)
let deep ~prob ~k ~threshold requests items =
  let evaluated = ref [] and probs = ref [] and skipped = ref 0 in
  Array.iter
    (fun (i, ub) ->
      if ub < Float.max threshold (kth_of k !probs) then incr skipped
      else begin
        let { Ppd.Compile.session; union } = requests.(i) in
        let p = match union with None -> 0. | Some u -> prob session u in
        evaluated := (i, p) :: !evaluated;
        probs := p :: !probs
      end)
    items;
  (!evaluated, !skipped)

let top_k_edges t ?deadline ~bounds ~prob ~k ~n_edges ~p_rel requests =
  let t0 = Util.Timer.wall () in
  let buckets = partition t ~p_rel requests in
  let outcomes = Array.make (shards t) Answered in
  let failures = Array.make (shards t) None in
  let fail s (o, e) =
    outcomes.(s) <- o;
    failures.(s) <- Some e
  in
  (* Phase 1: every partition's per-session upper bounds, one batch each. *)
  let phase1 =
    Obs.with_span "shard.bounds" (fun () ->
        scatter ?deadline requests buckets (bounds ~n_edges))
  in
  let best_bounds = Array.make (shards t) nan in
  let shard_bounds =
    Array.mapi
      (fun s -> function
        | Ok bs ->
            if Array.length bs > 0 then
              best_bounds.(s) <-
                Array.fold_left (fun acc b -> if b > acc then b else acc) neg_infinity bs;
            bs
        | Error f ->
            fail s f;
            [||])
      phase1
  in
  let survivors =
    List.filter
      (fun s -> Array.length buckets.(s) > 0 && outcomes.(s) = Answered)
      (List.init (shards t) Fun.id)
    (* Descending best bound; ties in shard-id order for determinism. *)
    |> List.stable_sort (fun a b -> compare best_bounds.(b) best_bounds.(a))
  in
  let bound_s = Util.Timer.wall () -. t0 in
  (* Phase 2: deep-query shards in descending best-bound order, skipping
     any whose bound falls strictly below the running k-th lower bound.
     Sequential on purpose: each shard's answers tighten the threshold
     the next decision uses, which is what makes the prune-soundness
     invariant (skipped => bound < final k-th) hold exactly. *)
  let filled = Array.make (Array.length requests) None in
  let pruned_shards = ref 0 and deep_shards = ref 0 and pruned_sessions = ref 0 in
  let solved = ref 0 and threshold = ref neg_infinity and all_probs = ref [] in
  Obs.with_span "shard.deep" (fun () ->
      List.iter
        (fun s ->
          if best_bounds.(s) < !threshold then begin
            outcomes.(s) <- Skipped_by_bound;
            incr pruned_shards;
            pruned_sessions := !pruned_sessions + Array.length buckets.(s)
          end
          else begin
            incr deep_shards;
            let items = Array.mapi (fun j i -> (i, shard_bounds.(s).(j))) buckets.(s) in
            (* Descending bound; ties in global session order. *)
            Array.stable_sort (fun (_, a) (_, b) -> compare b a) items;
            match
              run_shard ?deadline s (fun () ->
                  deep ~prob ~k ~threshold:!threshold requests items)
            with
            | Ok (evaluated, skipped) ->
                List.iter
                  (fun (i, p) ->
                    filled.(i) <- Some p;
                    incr solved;
                    all_probs := p :: !all_probs)
                  evaluated;
                pruned_sessions := !pruned_sessions + skipped;
                threshold := kth_of k !all_probs
            | Error f -> fail s f
          end)
        survivors);
  reraise_if_unanswered buckets outcomes failures;
  ( in_order requests filled,
    summarize ~pruned_shards:!pruned_shards ~deep_shards:!deep_shards
      ~pruned_sessions:!pruned_sessions ~best_bounds ~kth:!threshold
      ~solved_sessions:!solved t outcomes,
    bound_s )

let top_k t ?deadline ~batch ~bounds ~prob ~k ~strategy ~p_rel requests =
  match strategy with
  | `Naive ->
      let evaluated, summary = probs t ?deadline ~batch ~p_rel requests in
      let kth = kth_of k (List.map snd evaluated) in
      (evaluated, { summary with kth = as_kth kth }, 0.)
  | `Edges n_edges ->
      top_k_edges t ?deadline ~bounds ~prob ~k ~n_edges ~p_rel requests

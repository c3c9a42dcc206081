(* Named resident PPDs, generated on demand and cached by full spec, each
   with the plans compiled against it. *)

(* A plan's identity: the full query value and the solver of the eval
   (a CQ's solver, a text's hint), led by a hash of both taken deeper than
   [Hashtbl.hash] looks, so texts that differ only in a late constant
   spread over the table. The store compares whole keys: the hash alone
   never decides a hit. *)
type query_value = Cq of Ppd.Query.t | Lang of Lang.Ast.t
type plan_key = int * query_value * Hardq.Solver.t

type entry = { db : Ppd.Database.t; plans : (plan_key, Plan.t) Engine.Store.t }

type t = {
  max_size : int;
  max_sessions : int;
  m : Mutex.t;
  cache : (string, entry) Hashtbl.t;
}

(* A plan keeps one row (session, pattern union) per session of its
   p-relation, about 6 words on the Figure 4 query, whose sessions all
   share one union (more when unions differ per session): it grows with
   its dataset's sessions. So the plan store of a dataset is bounded twice:
   at most [plans_per_dataset] plans, and at most [plan_rows] rows' worth
   of them (always at least one plan). *)
let plans_per_dataset = 64
let plan_rows = 1 lsl 16

let plan_capacity ~sessions =
  max 1 (min plans_per_dataset (plan_rows / max 1 sessions))

let n_sessions db =
  List.fold_left
    (fun acc p -> acc + Array.length (Ppd.Database.sessions p))
    0 (Ppd.Database.p_relations db)

let create ?(max_size = 64) ?(max_sessions = 100_000) () =
  { max_size; max_sessions; m = Mutex.create (); cache = Hashtbl.create 8 }

let names = [ "polls"; "movielens"; "crowdrank" ]

let c_generated = Obs.counter "registry.generated"
let c_lookups = Obs.counter "registry.lookups"
let c_plan_hits = Obs.counter "registry.plan_hits"
let c_plan_misses = Obs.counter "registry.plan_misses"

let key (d : Protocol.dataset_spec) =
  Printf.sprintf "%s[size=%s,sessions=%s,seed=%d]" d.Protocol.ds_name
    (match d.Protocol.ds_size with Some v -> string_of_int v | None -> "-")
    (match d.Protocol.ds_sessions with Some v -> string_of_int v | None -> "-")
    (Option.value ~default:42 d.Protocol.ds_seed)

(* Each family maps the generic (size, sessions) knobs onto its own
   generator parameters and defaults; [hardq] resolves datasets here too. *)
let generate (d : Protocol.dataset_spec) =
  let seed = Option.value ~default:42 d.Protocol.ds_seed in
  let size ~default = Option.value ~default d.Protocol.ds_size in
  let sessions ~default = Option.value ~default d.Protocol.ds_sessions in
  match d.Protocol.ds_name with
  | "polls" ->
      Some
        (Datasets.Polls.generate ~n_candidates:(size ~default:12)
           ~n_voters:(sessions ~default:100) ~seed ())
  | "movielens" ->
      Some
        (Datasets.Movielens.generate
           ~n_movies:(max (size ~default:20) 20)
           ~n_components:(min (sessions ~default:16) 16)
           ~seed ())
  | "crowdrank" ->
      Some
        (Datasets.Crowdrank.generate
           ~n_movies:(size ~default:20)
           ~n_workers:(sessions ~default:200) ~seed ())
  | _ -> None

let showcase_query = function
  | "polls" -> Some Datasets.Polls.query_two_label
  | "movielens" -> Some Datasets.Movielens.query_fig14
  | "crowdrank" -> Some Datasets.Crowdrank.query_fig15
  | _ -> None

let validate t (d : Protocol.dataset_spec) =
  if not (List.mem d.Protocol.ds_name names) then
    Error
      (Protocol.error Protocol.Unknown_dataset
         (Printf.sprintf "unknown dataset %S (valid names: %s)"
            d.Protocol.ds_name (String.concat ", " names)))
  else
    let check what bound = function
      | Some v when v < 1 ->
          Error
            (Protocol.error Protocol.Bad_request
               (Printf.sprintf "dataset %s must be >= 1 (got %d)" what v))
      | Some v when v > bound ->
          Error
            (Protocol.error Protocol.Bad_request
               (Printf.sprintf "dataset %s %d exceeds the server bound %d" what
                  v bound))
      | _ -> Ok ()
    in
    match check "size" t.max_size d.Protocol.ds_size with
    | Error _ as e -> e
    | Ok () -> check "sessions" t.max_sessions d.Protocol.ds_sessions

let entry t (d : Protocol.dataset_spec) =
  match validate t d with
  | Error e -> Error e
  | Ok () ->
      let k = key d in
      Mutex.protect t.m (fun () ->
          Obs.Counter.incr c_lookups;
          match Hashtbl.find_opt t.cache k with
          | Some entry -> Ok entry
          | None ->
              (* [validate] established the name is known. Generation runs
                 under the lock: concurrent requests for the same spec
                 synthesize it once. *)
              let db = Option.get (generate d) in
              Obs.Counter.incr c_generated;
              let capacity = plan_capacity ~sessions:(n_sessions db) in
              let entry = { db; plans = Engine.Store.create ~capacity } in
              Hashtbl.add t.cache k entry;
              Ok entry)

let find t d = Result.map (fun entry -> entry.db) (entry t d)

let plan_key (e : Protocol.eval) : plan_key =
  let v =
    match e.Protocol.query with
    | Protocol.Cq q -> Cq q
    | Protocol.Lang { ast; _ } -> Lang ast
  in
  (Hashtbl.hash_param 64 256 (v, e.Protocol.solver), v, e.Protocol.solver)

(* Single flight through the entry's store: one compile per key however
   many workers ask at once. A failed compile publishes nothing, so an
   error is never cached and the next request compiles again. *)
let rec plan entry key (e : Protocol.eval) =
  match Engine.Store.claim entry.plans key with
  | Engine.Store.Hit p ->
      Obs.Counter.incr c_plan_hits;
      Ok p
  | Engine.Store.Busy -> (
      match Engine.Store.await entry.plans key with
      | Some p ->
          Obs.Counter.incr c_plan_hits;
          Ok p
      | None -> plan entry key e)
  | Engine.Store.Owner -> (
      Obs.Counter.incr c_plan_misses;
      match Protocol.plan_of_eval ~db:entry.db e with
      | Ok p ->
          Engine.Store.publish entry.plans key p;
          Ok p
      | Error _ as err ->
          Engine.Store.abandon entry.plans key;
          err
      | exception exn ->
          Engine.Store.abandon entry.plans key;
          raise exn)

let request t ~budget ?deadline ~parallelism (e : Protocol.eval) =
  match entry t e.Protocol.dataset with
  | Error err -> Error err
  | Ok entry ->
      Result.map
        (Protocol.request_of_plan ~budget ?deadline ~parallelism e)
        (plan entry (plan_key e) e)

let preload t d = Result.map (fun (_ : entry) -> ()) (entry t d)

let cached t =
  Mutex.lock t.m;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.cache [] in
  Mutex.unlock t.m;
  List.sort compare keys

(* Named resident PPDs, generated on demand and cached by full spec. *)

type t = {
  max_size : int;
  max_sessions : int;
  m : Mutex.t;
  cache : (string, Ppd.Database.t) Hashtbl.t;
}

let create ?(max_size = 64) ?(max_sessions = 100_000) () =
  { max_size; max_sessions; m = Mutex.create (); cache = Hashtbl.create 8 }

let names = [ "polls"; "movielens"; "crowdrank" ]

let c_generated = Obs.counter "registry.generated"
let c_lookups = Obs.counter "registry.lookups"

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

let find t (d : Protocol.dataset_spec) =
  match validate t d with
  | Error e -> Error e
  | Ok () ->
      let k = key d in
      Mutex.lock t.m;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.m)
        (fun () ->
          Obs.Counter.incr c_lookups;
          match Hashtbl.find_opt t.cache k with
          | Some db -> Ok db
          | None ->
              (* [validate] established the name is known. Generation runs
                 under the lock: concurrent requests for the same spec
                 synthesize it once. *)
              let db = Option.get (generate d) in
              Obs.Counter.incr c_generated;
              Hashtbl.add t.cache k db;
              Ok db)

let preload t d = Result.map (fun (_ : Ppd.Database.t) -> ()) (find t d)

let cached t =
  Mutex.lock t.m;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.cache [] in
  Mutex.unlock t.m;
  List.sort compare keys

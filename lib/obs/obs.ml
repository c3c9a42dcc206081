(* Process-wide observability: sharded atomic counters and log-scale
   histograms that always record, and lightweight spans behind a tracing
   switch.

   Design constraints (DESIGN.md §8):
   - zero dependencies beyond the stdlib + unix (wall clock for spans);
   - domain-safe: counters and histograms are sharded per domain and
     merged on read, so solver code running inside pool workers can
     record without locks or cross-domain contention;
   - cheap enough to leave on: recording is one atomic add on the calling
     domain's shard, and callers on hot loops accumulate into plain local
     ints and flush once per call. Spans allocate, so they alone stay
     behind a switch (off unless [enable_tracing]). *)

(* ------------------------------------------------------------------ *)
(* Tracing switch                                                      *)
(* ------------------------------------------------------------------ *)

let trace_on = Atomic.make false
let enable_tracing () = Atomic.set trace_on true
let disable_tracing () = Atomic.set trace_on false
let tracing () = Atomic.get trace_on

(* ------------------------------------------------------------------ *)
(* Sharded cells                                                       *)
(* ------------------------------------------------------------------ *)

(* Domains hash onto [n_shards] shards. A counter's shards are spread
   [stride] cells apart so two busy domains rarely share a cache line;
   only the [n_shards] used cells are read or reset. *)
let n_shards = 8
let stride = 8
let make_cells () = Array.init (n_shards * stride) (fun _ -> Atomic.make 0)
let shard () = (Domain.self () :> int) land (n_shards - 1)
let cells_add cells n = ignore (Atomic.fetch_and_add cells.(shard () * stride) n)

let cells_value cells =
  let acc = ref 0 in
  for s = 0 to n_shards - 1 do
    acc := !acc + Atomic.get cells.(s * stride)
  done;
  !acc

let cells_reset cells = Array.iter (fun a -> Atomic.set a 0) cells

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { name : string; cells : int Atomic.t array }

  let unregistered name = { name; cells = make_cells () }
  let name t = t.name
  let add t n = if n <> 0 then cells_add t.cells n
  let incr t = add t 1
  let value t = cells_value t.cells
  let reset t = cells_reset t.cells
end

(* ------------------------------------------------------------------ *)
(* Log-scale histograms                                                *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  (* Power-of-two buckets over nonnegative ints: bucket 0 holds the
     value 0, bucket b >= 1 holds values in [2^(b-1), 2^b). Shard-major
     cell layout: each shard owns one row of [row] cells, its
     [n_buckets] bucket counts followed by its share of the sum, so a
     histogram is [n_shards * row] cells and shards sit a row apart. *)
  let n_buckets = 63
  let row = n_buckets + 1

  type t = { name : string; cells : int Atomic.t array }

  let unregistered name =
    { name; cells = Array.init (n_shards * row) (fun _ -> Atomic.make 0) }

  let name t = t.name

  let bucket_of v =
    if v <= 0 then 0
    else begin
      (* number of significant bits, capped at the last bucket *)
      let rec bits acc x = if x = 0 then acc else bits (acc + 1) (x lsr 1) in
      min (n_buckets - 1) (bits 0 v)
    end

  let lower_bound b = if b = 0 then 0 else 1 lsl (b - 1)

  let observe t v =
    let base = shard () * row in
    ignore (Atomic.fetch_and_add t.cells.(base + bucket_of v) 1);
    if v > 0 then ignore (Atomic.fetch_and_add t.cells.(base + n_buckets) v)

  (* Cell [k] of every shard row, summed. *)
  let column t k =
    let acc = ref 0 in
    for s = 0 to n_shards - 1 do
      acc := !acc + Atomic.get t.cells.((s * row) + k)
    done;
    !acc

  let buckets t =
    let out = ref [] in
    for b = n_buckets - 1 downto 0 do
      let c = column t b in
      if c > 0 then out := (lower_bound b, c) :: !out
    done;
    !out

  let count t = List.fold_left (fun acc (_, c) -> acc + c) 0 (buckets t)
  let sum t = column t n_buckets
  let reset t = cells_reset t.cells
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type metric = C of Counter.t | H of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let intern name make =
  Mutex.lock registry_mutex;
  let metric =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make name in
        Hashtbl.add registry name m;
        m
  in
  Mutex.unlock registry_mutex;
  metric

let counter name =
  match intern name (fun n -> C (Counter.unregistered n)) with
  | C c -> c
  | H _ ->
      invalid_arg
        (Printf.sprintf "Obs.counter: %S is registered as a histogram" name)

let histogram name =
  match intern name (fun n -> H (Histogram.unregistered n)) with
  | H h -> h
  | C _ ->
      invalid_arg
        (Printf.sprintf "Obs.histogram: %S is registered as a counter" name)

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type value =
  | Count of int
  | Hist of { count : int; sum : int; buckets : (int * int) list }

type snapshot = (string * value) list

let snapshot () =
  Mutex.lock registry_mutex;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.filter_map
    (fun (name, m) ->
      match m with
      | C c ->
          let v = Counter.value c in
          if v = 0 then None else Some (name, Count v)
      | H h -> (
          match Histogram.buckets h with
          | [] -> None
          | buckets ->
              Some
                ( name,
                  Hist
                    {
                      count = List.fold_left (fun a (_, c) -> a + c) 0 buckets;
                      sum = Histogram.sum h;
                      buckets;
                    } )))
    (List.sort (fun (a, _) (b, _) -> compare a b) entries)

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ -> function C c -> Counter.reset c | H h -> Histogram.reset h)
    registry;
  Mutex.unlock registry_mutex

(* [diff earlier later]: what happened between the two snapshots.
   Entries that did not move are dropped. *)
let diff earlier later =
  let base = Hashtbl.create 32 in
  List.iter (fun (name, v) -> Hashtbl.replace base name v) earlier;
  List.filter_map
    (fun (name, v) ->
      match (v, Hashtbl.find_opt base name) with
      | v, None -> Some (name, v)
      | Count b, Some (Count a) ->
          if b = a then None else Some (name, Count (b - a))
      | Hist h, Some (Hist h0) ->
          if h.count = h0.count then None
          else begin
            let old = Hashtbl.create 8 in
            List.iter (fun (lo, c) -> Hashtbl.replace old lo c) h0.buckets;
            let buckets =
              List.filter_map
                (fun (lo, c) ->
                  let c' = c - Option.value ~default:0 (Hashtbl.find_opt old lo) in
                  if c' > 0 then Some (lo, c') else None)
                h.buckets
            in
            Some
              ( name,
                Hist { count = h.count - h0.count; sum = h.sum - h0.sum; buckets }
              )
          end
      | v, Some _ -> Some (name, v))
    later

let find snap name = List.assoc_opt name snap
let count snap name = match find snap name with Some (Count n) -> n | _ -> 0

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled; the library stays dependency-free)     *)
(* ------------------------------------------------------------------ *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let json_of_snapshot ?(extra = []) snap =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b "  ";
      add_json_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b ",\n")
    extra;
  let counters =
    List.filter_map (function n, Count v -> Some (n, v) | _ -> None) snap
  in
  let hists =
    List.filter_map
      (function
        | n, Hist { count; sum; buckets } -> Some (n, (count, sum, buckets))
        | _ -> None)
      snap
  in
  Buffer.add_string b "  \"counters\": {";
  List.iteri
    (fun i (n, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      add_json_string b n;
      Buffer.add_string b (Printf.sprintf ": %d" v))
    counters;
  if counters <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "},\n  \"histograms\": {";
  List.iteri
    (fun i (n, (count, sum, buckets)) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n    ";
      add_json_string b n;
      Buffer.add_string b
        (Printf.sprintf ": {\"count\": %d, \"sum\": %d, \"buckets\": [%s]}" count
           sum
           (String.concat ", "
              (List.map (fun (lo, c) -> Printf.sprintf "[%d, %d]" lo c) buckets))))
    hists;
  if hists <> [] then Buffer.add_string b "\n  ";
  Buffer.add_string b "}\n}\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Span = struct
  type t = {
    name : string;
    mutable elapsed_s : float;
    mutable children : t list; (* reverse chronological *)
  }

  let name t = t.name
  let elapsed_s t = t.elapsed_s
  let children t = List.rev t.children
end

type span_state = {
  mutable stack : Span.t list;
  mutable finished : Span.t list; (* completed roots, reverse order *)
}

let span_key = Domain.DLS.new_key (fun () -> { stack = []; finished = [] })

let with_span name f =
  if not (Atomic.get trace_on) then f ()
  else begin
    let st = Domain.DLS.get span_key in
    let sp = { Span.name; elapsed_s = 0.; children = [] } in
    st.stack <- sp :: st.stack;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        sp.Span.elapsed_s <- Unix.gettimeofday () -. t0;
        (match st.stack with
        | top :: rest when top == sp -> st.stack <- rest
        | _ -> ());
        match st.stack with
        | parent :: _ -> parent.Span.children <- sp :: parent.Span.children
        | [] -> st.finished <- sp :: st.finished)
      f
  end

let trace_roots () = List.rev (Domain.DLS.get span_key).finished

let clear_trace () =
  let st = Domain.DLS.get span_key in
  st.stack <- [];
  st.finished <- []

let rec pp_span ppf ~indent sp =
  Format.fprintf ppf "%s%-28s %10.3f ms@."
    (String.make indent ' ')
    (Span.name sp)
    (Span.elapsed_s sp *. 1e3);
  List.iter (pp_span ppf ~indent:(indent + 2)) (Span.children sp)

let pp_trace ppf () = List.iter (pp_span ppf ~indent:0) (trace_roots ())

(* The benchmark's serving workloads (see [gated] for the ones BENCHMARK.json lists).

   Every workload runs on the [polls] family. The [movielens] and
   [crowdrank] showcase queries abort at CLI defaults with an untyped
   "state explosion" failure, so they cannot carry a timed stream yet.

   The split follows the tractable / #P-hard dichotomy the planner routes
   on: exact-DP traffic ([warm-mix], [cold-exact], [cold-sharded]) and
   hard-verdict sampler traffic ([anytime-ci]) are measured apart.

   Why the streams are homogeneous. Latency percentiles over a two-mode
   cost mix jump whenever the share of the slow mode is near one half
   (the median then sits on the gap between the modes). So every stream
   below is built so that no cost class is close to half of it:

   - [warm-mix] holds only templates that cost about the same when warm.
     1-edge CQ top-k is left out on purpose: it recomputes bounds on every
     request, and it shares a batch bucket (same dataset, query, solver,
     seed) with same-query Count requests, which then wait behind it.
   - [cold-exact] and [cold-sharded] send Count to 1-edge Top-k at 3 to
     1; at m = 10 and 60 sessions the two cost about the same (medians
     13.1 and 14.1 ms unsharded, 23.3 and 25.7 ms on two shards), so the
     stream has one cost mode.
   - [anytime-ci] sends one query shape whose CI target stops every
     request after the same number of sampling rounds.

   Why warm-up runs several passes. Set-up time is reported as the median
   over several set-ups in one run, and on a shared host the CPU speed
   can drop in bursts of about a second; a set-up of a few hundred
   milliseconds keeps one burst from covering most of them.

   Why warm-up repeats until a pass has zero misses. Answer-tier keys
   embed the database's whole labeling, so a query that interns a new
   label invalidates every cached answer for that database. After one
   warm pass over mixed templates the next request for a template misses
   all its keys again. [warm-mix] therefore warms up by repeating the
   template set until one full pass has zero answer-tier misses; the
   timed phase then checks that it sees no miss at all. *)

type source =
  | Cq of string  (** datalog text, sent as the wire member ["query"] *)
  | Text of string  (** query-language text, sent as ["q"] *)

type check =
  | Exact
      (** bit-identical to the sequential reference ([Engine.Reference]) *)
  | Sharded_exact
      (** bit-identical to the unsharded reference, with ["exact": true] *)
  | Ci of float
      (** anytime: status [final], CI width at most the target, and the CI
          contains the exact answer *)

type template = {
  name : string;
  weight : int;  (** relative frequency in the stream *)
  source : source;
  task : Engine.Request.task;  (** ignored for text carrying its own task *)
  reference : string * Engine.Request.task;
      (** the datalog query and task the reference answer is computed on *)
  fresh_seed : bool;  (** draw a new request seed for every request *)
}

type warm_up = Until_no_miss | Passes of int

type t = {
  name : string;
  connections : int;  (** closed-loop clients, capped at nproc *)
  size : int;  (** item count m *)
  sessions : int;
  shards : int;
  cache_capacity : int;
  term_cache_capacity : int;
  check : check;
  warm_up : warm_up;
  templates : template array;
}

(* The dataset is fixed per workload; [--seed] varies the request stream
   only, so every seed sees the same working set and per-request cost. *)
let dataset_seed = 42

let fig4 = Datasets.Polls.query_two_label

let count = Engine.Request.Count
let boolean = Engine.Request.Boolean
let topk_1edge = Engine.Request.Top_k { k = 3; strategy = `Edges 1 }
let topk_naive = Engine.Request.Top_k { k = 3; strategy = `Naive }

let cq ?(weight = 1) name query task =
  {
    name;
    weight;
    source = Cq query;
    task;
    reference = (query, task);
    fresh_seed = false;
  }

let text ?(weight = 1) ?(fresh_seed = false) name q reference =
  { name; weight; source = Text q; task = count; reference; fresh_seed }

let chain_text =
  "count Q() :- prefers(\"cand05\", \"cand02\"), prefers(\"cand02\", \"cand08\")."

let chain_cq =
  "Q() :- P(_, _; \"cand05\"; \"cand02\"), P(_, _; \"cand02\"; \"cand08\")."

(* Cold traffic runs on one connection: two requests that each fan out
   over the whole domain pool would contend for it, and their latencies
   would then depend on how the runtime lock happens to be handed over.
   At m = 10 and 60 sessions a request costs about 13 ms unsharded and
   23 ms on two shards (the solve and bound phases still take about 95%
   of the engine's time), so a 20 s run holds 800 to 1500 replies: at
   least eight blocks of 100 for the latency figures. At m = 12 and 100
   sessions a sharded run held only about 220. *)
let cold name ~shards =
  {
    name;
    connections = 1;
    size = 10;
    sessions = 60;
    shards;
    cache_capacity = 0;
    term_cache_capacity = 0;
    check = (if shards > 1 then Sharded_exact else Exact);
    warm_up = Passes 4;
    templates =
      [| cq ~weight:3 "count-fig4" fig4 count; cq "topk1-fig4" fig4 topk_1edge |];
  }

let all =
  [
    (* Cache-hot analyst traffic: almost no solving, so this stresses the
       wire codec, the query frontend, Algorithm-2 compile and the
       engine's store lookups; solver changes predict no move here. *)
    {
      name = "warm-mix";
      connections = 2;
      size = 12;
      sessions = 100;
      shards = 1;
      cache_capacity = 8192;
      term_cache_capacity = 4096;
      check = Exact;
      warm_up = Until_no_miss;
      templates =
        [|
          cq "bool-fig4" fig4 boolean;
          cq "count-fig4" fig4 count;
          text "prefers" "count Q() :- prefers(\"cand03\", \"cand07\")."
            ("Q() :- P(_, _; \"cand03\"; \"cand07\").", count);
          text "top3" "top(3) Q() :- prefers(\"cand01\", \"cand04\")."
            ("Q() :- P(_, _; \"cand01\"; \"cand04\").", topk_naive);
          text "chain" chain_text (chain_cq, count);
        |];
    };
    (* Tractable exact traffic whose working set the store cannot hold
       (both tiers at capacity 0): the solve phase dominates, so this
       stresses the DP kernels, the top-k bounds and the domain pool;
       wire and cache changes predict no move here. *)
    cold "cold-exact" ~shards:1;
    (* Hard-verdict traffic under a CI-width SLO: the planner routes the
       chain query to inclusion-exclusion (hard), so [target_ci] serves
       it with the anytime sampler on the server worker's thread. Its
       mean per-session probability is about 0.15. Target 3.0 lies
       between the widths after round 1 (about 4.4) and round 2 (about
       2.6), so every request stops after exactly 2 rounds. *)
    {
      name = "anytime-ci";
      connections = 2;
      size = 12;
      sessions = 100;
      shards = 1;
      cache_capacity = 8192;
      term_cache_capacity = 4096;
      check = Ci 3.0;
      warm_up = Passes 4;
        templates =
        [| text ~fresh_seed:true "chain-ci" chain_text (chain_cq, count) |];
    };
    (* The cold-exact stream on two shards: the only workload through the
       scatter-gather coordinator and two-phase top-k pruning. Against
       cold-exact it compares shard threads with the pooled path. *)
    cold "cold-sharded" ~shards:2;
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The workloads BENCHMARK.json lists. anytime-ci stays runnable by name
   but is not listed: on a shared 2-vCPU host its medians moved by up to
   41% between sets of runs 25 minutes apart, past any bound a
   regression gate may use, while the exact-DP workloads moved by at
   most 14%. *)
let gated = List.filter (fun w -> w.name <> "anytime-ci") all

let spec w =
  Server.Protocol.dataset ~size:w.size ~sessions:w.sessions ~seed:dataset_seed
    "polls"

let target_ci w = match w.check with Ci t -> Some t | Exact | Sharded_exact -> None

(* One request of the wire stream: the eval record for [template] under
   request seed [seed]. *)
let eval w (t : template) ~seed =
  let spec = spec w in
  match t.source with
  | Cq q -> Server.Protocol.eval ~task:t.task ~seed spec (Ppd.Parser.parse q)
  | Text q -> (
      match
        Server.Protocol.eval_lang ~seed ?target_ci:(target_ci w)
          ~stream:(target_ci w <> None) spec q
      with
      | Ok e -> e
      | Error msg -> failwith (Printf.sprintf "template %s: %s" t.name msg))

(* A deterministic request stream per connection: template choices and
   fresh request seeds come from [(seed, connection)] alone, so the same
   seed replays the same requests whatever the timing. The stream is
   dealt in rounds: each round is a shuffle of the templates, every one
   repeated by its weight, so the mix of cost classes is the same for
   every seed and does not drift within a run. *)
type stream = { rng : Random.State.t; round : int array; mutable pos : int }

let stream w ~seed c =
  let round =
    Array.concat
      (Array.to_list (Array.mapi (fun i t -> Array.make t.weight i) w.templates))
  in
  { rng = Random.State.make [| seed; c; 0x9e37 |]; round; pos = Array.length round }

let base_seed = 42

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The next request: a template index and its request seed. *)
let next w st =
  if st.pos >= Array.length st.round then (
    shuffle st.rng st.round;
    st.pos <- 0);
  let i = st.round.(st.pos) in
  st.pos <- st.pos + 1;
  let seed =
    if w.templates.(i).fresh_seed then Random.State.bits st.rng else base_seed
  in
  (i, seed)

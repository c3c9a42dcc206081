(* Layer tables for the insertion-step dynamic programs.

   Every DP in lib/core expands the states of one layer into weighted
   contributions to the next. For answers to be reproducible across
   kernels and pool widths, the *order* in which a layer's states are
   visited — and hence the order in which floats land in the next
   layer's accumulators — must be an intrinsic property of the table,
   not an artifact of a hashtable's bucket layout. Both tables here
   therefore number states by first insertion and iterate in that
   order: a layer built from the same contribution stream exposes the
   same state sequence whether its keys are boxed or flat.

   [Boxed] is the reference layout (one structured key per state);
   [Flat] packs every state of a layer into a single int arena with an
   open-addressing index, so the hot path allocates nothing per state
   and the GC never scans DP keys. A solver call takes two [Flat]
   tables from its domain's spare pair ([Flat.with_pair]) and swaps/
   clears them between layers; back-to-back calls reuse arenas already
   grown to their high-water mark, so a typical call allocates no table
   memory at all. A fresh table is small enough (every array at most
   [Max_young_wosize] = 256 words) to be born in the minor heap, and a
   pair past [Flat.retain_cap_words] is dropped rather than kept. *)

exception State_explosion of { table : string; cap : int }

let () =
  Printexc.register_printer (function
    | State_explosion { table; cap } ->
        Some (Printf.sprintf "%s: state explosion (cap %d states)" table cap)
    | _ -> None)

let explode name cap = raise (State_explosion { table = name; cap })

(* Flat-kernel observability. Layer widths and high-water marks are
   recorded through the helpers below; the per-solver state counters stay
   with each solver. *)
let c_flat_calls = Obs.counter "dp.flat.calls"
let c_flat_states = Obs.counter "dp.flat.states"
let h_layer_width = Obs.histogram "dp.flat.layer_width"
let h_arena_hwm = Obs.histogram "dp.flat.arena_words_hwm"

module Boxed = struct
  type 'k t = {
    index : ('k, int) Hashtbl.t;
    mutable keys : 'k array;
    mutable probs : float array;
    mutable len : int;
    name : string;
    max_states : int;
  }

  let create ?(capacity = 64) ~name ~max_states () =
    {
      index = Hashtbl.create (max 16 capacity);
      keys = [||];
      probs = [||];
      len = 0;
      name;
      max_states;
    }

  let length t = t.len
  let key t s = t.keys.(s)
  let prob t s = t.probs.(s)

  let add t k p =
    match Hashtbl.find_opt t.index k with
    | Some s -> t.probs.(s) <- t.probs.(s) +. p
    | None ->
        if t.len >= t.max_states then explode t.name t.max_states;
        let cap = Array.length t.keys in
        if t.len = cap then begin
          let cap' = max 64 (2 * cap) in
          let keys = Array.make cap' k in
          Array.blit t.keys 0 keys 0 t.len;
          t.keys <- keys;
          let probs = Array.make cap' 0. in
          Array.blit t.probs 0 probs 0 t.len;
          t.probs <- probs
        end;
        t.keys.(t.len) <- k;
        t.probs.(t.len) <- p;
        Hashtbl.add t.index k t.len;
        t.len <- t.len + 1

  (* Insertion-order sum: the order every kernel uses, so the final
     accumulation is part of the pinned contribution stream too. *)
  let sum t =
    let acc = ref 0. in
    for s = 0 to t.len - 1 do
      acc := !acc +. t.probs.(s)
    done;
    !acc
end

module Flat = struct
  type t = {
    mutable data : int array; (* state words, slot-contiguous *)
    mutable used : int; (* words used in [data] *)
    mutable offs : int array; (* slot -> offset into [data] *)
    mutable lens : int array; (* slot -> word count *)
    mutable probs : float array; (* slot -> accumulated probability *)
    mutable n : int; (* number of slots *)
    mutable idx : int array; (* open addressing: 0 = empty, else slot+1 *)
    mutable mask : int; (* Array.length idx - 1 (a power of two) *)
    mutable name : string; (* reset when a spare table is checked out *)
    mutable max_states : int;
  }

  (* Initial sizes: every array stays under [Max_young_wosize] (256
     words), so a fresh table is a minor-heap allocation; the layer
     widths of a typical Polls-sized call (m = 10) fit without growing. *)
  let initial_idx = 64 (* power of two *)
  let initial_slots = 32

  let create ?(capacity_words = 128) ~name ~max_states () =
    {
      data = Array.make (max 16 capacity_words) 0;
      used = 0;
      offs = Array.make initial_slots 0;
      lens = Array.make initial_slots 0;
      probs = Array.make initial_slots 0.;
      n = 0;
      idx = Array.make initial_idx 0;
      mask = initial_idx - 1;
      name;
      max_states;
    }

  let length t = t.n
  let prob t s = t.probs.(s)
  let off t s = t.offs.(s)
  let len t s = t.lens.(s)
  let data t = t.data
  let offs t = t.offs
  let lens t = t.lens
  let probs t = t.probs
  let used_words t = t.used
  let capacity_words t = Array.length t.data

  (* Multiplicative word mix plus a finalizer; only intra-process
     determinism matters (the index order is never observable — slots
     are insertion-ordered). The probe indexes by the low bits, and a
     product only carries low bits upward, so without the finalizer the
     small position values of DP states clustered into long probe runs
     (3.2 probes per insert on the Polls two-label calls, 1.1 with it).
     Unsafe accesses: [off .. off+len-1] is in bounds by the caller's
     contract, checked once here against the actual array. *)
  let[@inline] hash_words buf off len =
    if off < 0 || len < 0 || off + len > Array.length buf then
      invalid_arg "Dp_table.Flat: span out of bounds";
    let h = ref (len + 1) in
    for k = off to off + len - 1 do
      h := (!h * 0x9E3779B1) lxor Array.unsafe_get buf k
    done;
    let h = !h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int

  (* [a] spans are arena-resident (in bounds by construction); [b] was
     bounds-checked by [hash_words] before any probe compares it. *)
  let[@inline] words_equal a aoff b boff len =
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < len do
      if Array.unsafe_get a (aoff + !k) <> Array.unsafe_get b (boff + !k) then
        ok := false
      else incr k
    done;
    !ok

  let rehash t =
    let size' = 2 * (t.mask + 1) in
    let idx' = Array.make size' 0 in
    let mask' = size' - 1 in
    for s = 0 to t.n - 1 do
      let h = hash_words t.data t.offs.(s) t.lens.(s) in
      let i = ref (h land mask') in
      while idx'.(!i) <> 0 do
        i := (!i + 1) land mask'
      done;
      idx'.(!i) <- s + 1
    done;
    t.idx <- idx';
    t.mask <- mask'

  let grow_slots t =
    let cap = Array.length t.offs in
    if t.n = cap then begin
      let cap' = 2 * cap in
      let offs = Array.make cap' 0 in
      Array.blit t.offs 0 offs 0 t.n;
      t.offs <- offs;
      let lens = Array.make cap' 0 in
      Array.blit t.lens 0 lens 0 t.n;
      t.lens <- lens;
      let probs = Array.make cap' 0. in
      Array.blit t.probs 0 probs 0 t.n;
      t.probs <- probs
    end

  let grow_data t need =
    let cap = Array.length t.data in
    if t.used + need > cap then begin
      let cap' = max (2 * cap) (t.used + need) in
      let data = Array.make cap' 0 in
      Array.blit t.data 0 data 0 t.used;
      t.data <- data
    end

  (* Slow path of [insert]: append a new state's words at index slot
     [i] and return its slot; the caller stores the probability (after
     [grow_slots] may have replaced [probs]), so no float crosses this
     call boxed. *)
  let add_new t buf off len i =
    if t.n >= t.max_states then explode t.name t.max_states;
    grow_slots t;
    grow_data t len;
    Array.blit buf off t.data t.used len;
    let s = t.n in
    t.offs.(s) <- t.used;
    t.lens.(s) <- len;
    t.used <- t.used + len;
    t.idx.(i) <- s + 1;
    t.n <- s + 1;
    if 2 * t.n > t.mask + 1 then rehash t;
    s

  (* Accumulate [p] onto the state whose words are [buf.(off ..
     off+len-1)], copying the words into the arena when the state is
     new. [buf] must not alias [t]'s own arena. Inlined into both entry
     points so [p] stays unboxed on the hit path. *)
  let[@inline] insert t buf off len p =
    let h = hash_words buf off len in
    let mask = t.mask in
    let idx = t.idx and lens = t.lens and offs = t.offs and data = t.data in
    let i = ref (h land mask) in
    let continue = ref true in
    while !continue do
      let e = Array.unsafe_get idx !i in
      if e = 0 then begin
        let s = add_new t buf off len !i in
        t.probs.(s) <- p;
        continue := false
      end
      else begin
        let s = e - 1 in
        if
          Array.unsafe_get lens s = len
          && words_equal data (Array.unsafe_get offs s) buf off len
        then begin
          let probs = t.probs in
          Array.unsafe_set probs s (Array.unsafe_get probs s +. p);
          continue := false
        end
        else i := (!i + 1) land mask
      end
    done

  let add t buf off len p = insert t buf off len p
  let add_cell t buf off len cell ci = insert t buf off len cell.(ci)

  let clear t =
    t.used <- 0;
    t.n <- 0;
    Array.fill t.idx 0 (t.mask + 1) 0

  let sum t =
    let acc = ref 0. in
    for s = 0 to t.n - 1 do
      acc := !acc +. t.probs.(s)
    done;
    !acc

  (* Per-domain spare pair. A solver call checks out its two tables and
     hands them back on return (or on an exception), so back-to-back
     calls on one domain reuse arenas already grown to their high-water
     mark and allocate nothing. Checkout is an atomic exchange, so two
     systhreads on one domain, or a nested call, never share a pair: the
     loser simply creates fresh tables. A pair is kept only while its
     total size stays within [retain_cap_words]; a large DP's tables
     are dropped on return and never stay resident. Checkout clears, so
     whatever state an aborted call left behind is gone. *)
  let retain_cap_words = 16_384

  let retained t =
    Array.length t.data + (3 * Array.length t.offs) + Array.length t.idx

  let spare : (t * t) option Atomic.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Atomic.make None)

  let reset t ~name ~max_states =
    clear t;
    t.name <- name;
    t.max_states <- max_states

  let with_pair ~name ~max_states f =
    let slot = Domain.DLS.get spare in
    let t0, t1 =
      match Atomic.exchange slot None with
      | Some ((t0, t1) as pair) ->
          reset t0 ~name ~max_states;
          reset t1 ~name ~max_states;
          pair
      | None -> (create ~name ~max_states (), create ~name ~max_states ())
    in
    Fun.protect
      ~finally:(fun () ->
        if retained t0 + retained t1 <= retain_cap_words then
          Atomic.set slot (Some (t0, t1)))
      (fun () -> f t0 t1)

  let spare_words () =
    match Atomic.get (Domain.DLS.get spare) with
    | None -> 0
    | Some (t0, t1) -> retained t0 + retained t1

  (* Observability helpers — callers flush once per solver call. *)
  let note_layer_width n = Obs.Histogram.observe h_layer_width n

  let flush_call ~states ~hwm_words =
    Obs.Counter.incr c_flat_calls;
    Obs.Counter.add c_flat_states states;
    Obs.Histogram.observe h_arena_hwm hwm_words
end

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
   [Fixed] packs every state of a layer, each [width] ints, into one int
   array with an open-addressing index, so the hot path allocates
   nothing per state and the GC never scans DP keys. A solver call takes
   two [Fixed] tables from its domain's spare pair ([Fixed.with_pair])
   and swaps/clears them between layers; back-to-back calls reuse
   tables already grown to their high-water mark, so a typical call
   allocates no table memory at all. A fresh table is small enough
   (every array at most [Max_young_wosize] = 256 words) to be born in
   the minor heap, and a pair past [Fixed.retain_cap_words] is dropped
   rather than kept. *)

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

module Fixed = struct
  type t = {
    mutable width : int; (* ints per key, fixed per call *)
    mutable keys : int array; (* slot s: [s * width .. s * width + width - 1] *)
    mutable probs : float array; (* slot -> accumulated probability *)
    mutable n : int; (* number of slots *)
    mutable index : int array; (* open addressing: 0 = empty, else slot+1 *)
    mutable mask : int; (* Array.length index - 1 (a power of two) *)
    mutable name : string; (* reset when a spare table is checked out *)
    mutable max_states : int;
  }

  (* Small enough to be born in the minor heap; a Polls m = 10 call's
     layers fit without growing. *)
  let create ~width ~name ~max_states () =
    {
      width;
      keys = Array.make 64 0;
      probs = Array.make 64 0.;
      n = 0;
      index = Array.make 128 0;
      mask = 127;
      name;
      max_states;
    }

  let width t = t.width
  let length t = t.n
  let keys t = t.keys
  let probs t = t.probs
  let used_words t = t.n * t.width
  let capacity_words t = Array.length t.keys

  (* Multiplicative word mix plus a finalizer; only intra-process
     determinism matters (the index order is never observable — slots
     are insertion-ordered). The probe indexes by the low bits, and a
     product only carries low bits upward, so without the finalizer the
     small position values of DP states clustered into long probe runs
     (3.2 probes per insert on the Polls two-label calls, 1.1 with it).
     Callers check [off .. off+width-1] against [buf] first. *)
  let[@inline] finalize h =
    let h = h * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 32)) land max_int

  let[@inline] hash_key buf off width =
    let h = ref (width + 1) in
    for k = off to off + width - 1 do
      h := (!h * 0x9E3779B1) lxor Array.unsafe_get buf k
    done;
    finalize !h

  (* [hash_key] of the one-word key [x]. *)
  let[@inline] hash_word x = finalize ((2 * 0x9E3779B1) lxor x)

  let rehash t =
    let size = 2 * (t.mask + 1) in
    let index = Array.make size 0 and mask = size - 1 in
    for s = 0 to t.n - 1 do
      let i = ref (hash_key t.keys (s * t.width) t.width land mask) in
      while index.(!i) <> 0 do
        i := (!i + 1) land mask
      done;
      index.(!i) <- s + 1
    done;
    t.index <- index;
    t.mask <- mask

  (* Slow path of [add]: append the key at index slot [i] and return its
     slot; the caller stores the probability (after the probabilities
     may have grown), so no float crosses this call boxed. *)
  let add_new t buf off i =
    if t.n >= t.max_states then explode t.name t.max_states;
    let s = t.n and width = t.width in
    if (s + 1) * width > Array.length t.keys then begin
      let keys = Array.make (max (2 * Array.length t.keys) ((s + 1) * width)) 0 in
      Array.blit t.keys 0 keys 0 (s * width);
      t.keys <- keys
    end;
    if s = Array.length t.probs then begin
      let probs = Array.make (2 * s) 0. in
      Array.blit t.probs 0 probs 0 s;
      t.probs <- probs
    end;
    Array.blit buf off t.keys (s * width) width;
    t.index.(i) <- s + 1;
    t.n <- s + 1;
    if 2 * t.n > t.mask + 1 then rehash t;
    s

  (* Unsafe accesses: [buf]'s span is checked here, a key slot [s < n]
     has its [width] words below [n * width], and the index is probed
     under [mask]. *)
  let add t buf off cell ci =
    let width = t.width in
    if off < 0 || off + width > Array.length buf then
      invalid_arg "Dp_table.Fixed.add: key out of bounds";
    let p = cell.(ci) in
    let index = t.index and mask = t.mask and keys = t.keys in
    let go = ref true in
    (* One-word keys (every Polls two-label state) hash and probe with no
       word loop: a Polls two-label call runs about 5% faster than
       through the general loop. *)
    if width = 1 then begin
      let x = Array.unsafe_get buf off in
      let i = ref (hash_word x land mask) in
      while !go do
        let e = Array.unsafe_get index !i in
        if e = 0 then begin
          let s = add_new t buf off !i in
          t.probs.(s) <- p;
          go := false
        end
        else if Array.unsafe_get keys (e - 1) = x then begin
          let probs = t.probs in
          Array.unsafe_set probs (e - 1) (Array.unsafe_get probs (e - 1) +. p);
          go := false
        end
        else i := (!i + 1) land mask
      done
    end
    else begin
      let i = ref (hash_key buf off width land mask) in
      while !go do
        let e = Array.unsafe_get index !i in
        if e = 0 then begin
          let s = add_new t buf off !i in
          t.probs.(s) <- p;
          go := false
        end
        else begin
          let s = e - 1 in
          let base = s * width and k = ref 0 in
          while
            !k < width
            && Array.unsafe_get keys (base + !k)
               = Array.unsafe_get buf (off + !k)
          do
            incr k
          done;
          if !k = width then begin
            let probs = t.probs in
            Array.unsafe_set probs s (Array.unsafe_get probs s +. p);
            go := false
          end
          else i := (!i + 1) land mask
        end
      done
    end

  let clear t =
    t.n <- 0;
    Array.fill t.index 0 (t.mask + 1) 0

  (* The per-domain spare pair. A solver call checks it out and hands it
     back on return (or on an exception), so back-to-back calls on one
     domain reuse tables already grown to their high-water mark. A pair
     is kept only while its total size stays within [retain_cap_words]:
     a large DP's tables are dropped on return and never stay resident.
     Checkout is an atomic exchange, so two systhreads on one domain, or
     a nested call, never share a pair (the loser builds a fresh one),
     and checkout clears whatever an aborted call left behind. *)
  let retain_cap_words = 16_384

  let retained t =
    Array.length t.keys + Array.length t.probs + Array.length t.index

  let spare : (t * t) option Atomic.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Atomic.make None)

  let reset t ~name ~width ~max_states =
    clear t;
    t.name <- name;
    t.width <- width;
    t.max_states <- max_states

  let with_pair ~name ~width ~max_states f =
    let slot = Domain.DLS.get spare in
    let ((t0, t1) as pair) =
      match Atomic.exchange slot None with
      | Some pair -> pair
      | None ->
          (create ~width ~name ~max_states (), create ~width ~name ~max_states ())
    in
    reset t0 ~name ~width ~max_states;
    reset t1 ~name ~width ~max_states;
    Fun.protect
      ~finally:(fun () ->
        if retained t0 + retained t1 <= retain_cap_words then
          Atomic.set slot (Some pair))
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

(* [| sum; carry |]: Neumaier's variant of Kahan summation, which also
   keeps the low bits when a term is larger than the running sum. *)
module Mass = struct
  type t = float array

  let create () = [| 0.; 0. |]

  let[@inline] add_x acc x =
    let s = Array.unsafe_get acc 0 in
    let t = s +. x in
    let lost = if s >= x then s -. t +. x else x -. t +. s in
    Array.unsafe_set acc 1 (Array.unsafe_get acc 1 +. lost);
    Array.unsafe_set acc 0 t

  let add acc cell ci = add_x acc cell.(ci)
  let add_float acc x = add_x acc x
  let total acc = acc.(0) +. acc.(1)
end

(* Layer tables for the insertion-step dynamic programs.

   Every DP in lib/core expands the states of one layer into weighted
   contributions to the next. For answers to be reproducible across
   pool widths, the *order* in which a layer's states are visited — and
   hence the order in which floats land in the next layer's
   accumulators — must be an intrinsic property of the table, not an
   artifact of a hashtable's bucket layout. The table therefore numbers
   states by first insertion and iterates in that order: a layer built
   from the same contribution stream exposes the same state sequence.

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

(* DP-kernel observability, under the [dp.flat.*] names. Layer widths
   and high-water marks are recorded through the helpers below; the
   per-solver state counters stay with each solver. *)
let c_flat_calls = Obs.counter "dp.flat.calls"
let c_flat_states = Obs.counter "dp.flat.states"
let h_layer_width = Obs.histogram "dp.flat.layer_width"
let h_arena_hwm = Obs.histogram "dp.flat.arena_words_hwm"

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
    log : bool; (* a parallel chunk's log: [add] appends, never merges *)
  }

  (* Small enough to be born in the minor heap; a Polls m = 10 call's
     layers fit without growing. *)
  let make ~log ~width ~name ~max_states =
    {
      width;
      keys = Array.make 64 0;
      probs = Array.make 64 0.;
      n = 0;
      index = Array.make 128 0;
      mask = 127;
      name;
      max_states;
      log;
    }

  let create ~width ~name ~max_states () =
    make ~log:false ~width ~name ~max_states

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

  (* Copy the key at [buf.(off ..)] into a new last slot and return it;
     the caller stores the probability (after the probabilities may have
     grown), so no float crosses this call boxed. *)
  let append t buf off =
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
    t.n <- s + 1;
    s

  (* Slow path of [add]: a new state at index slot [i]. A log table
     never fills its index, so every key probes to an empty slot and
     lands here: it appends each emission and merges none, at no cost
     to an indexed table's hot path. *)
  let add_new t buf off i =
    if t.n >= t.max_states then explode t.name t.max_states;
    let s = append t buf off in
    if not t.log then begin
      t.index.(i) <- s + 1;
      if 2 * t.n > t.mask + 1 then rehash t
    end;
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
  let total acc = acc.(0) +. acc.(1)
end

(* The one layer driver of the DP kernels. A kernel supplies its state
   encoding (a table width and a seed), a per-layer hoist that returns
   the layer's per-state [expand], and a read of the last table; the
   driver owns the rest: the table pair, the budget check, the tallies,
   the sequential/chunked split, the chunk-order replay and the swap.

   An expansion emits a successor with [Fixed.add next] and satisfied
   mass with [emit_mass out]. On the sequential path [next] is the next
   layer's table, so an emission is one call into [Fixed.add] as before
   the driver, and [out] adds into the call's one [mass]. A parallel
   chunk gets log tables instead ([Fixed.add] appends to a log, in
   emission order): one for [next], and one of width 0 for its masses;
   the driver replays both in chunk order into the next table and
   [mass]. The merged streams are then the sequential ones for any
   chunking, so the next table's slot order and every float addition
   are too. The two streams may be logged apart because they feed
   disjoint accumulators: only each stream's own order matters. *)
module Layers = struct
  type out = { mass : Mass.t; log : Fixed.t option }

  (* Below this many states a layer is expanded on the calling domain:
     the logging overhead would dwarf the work. The merged stream is
     chunking-invariant, so the cut-off moves no answer bit. *)
  let default_min_par = 192

  let emit_mass o cell ci =
    match o.log with
    | None -> Mass.add_x o.mass cell.(ci)
    | Some t -> Fixed.add t [||] 0 cell ci

  let log_table width = Fixed.make ~log:true ~width ~name:"" ~max_states:max_int

  (* A layer of [n] states in [n_chunks] contiguous chunks on the pool,
     each with its own scratch and logs, replayed in chunk order on the
     calling domain; [finish] follows each chunk's replay. *)
  let chunked ~par ~n ~scratch ~expand ~finish mass next =
    let n_chunks = min n (4 * Util.Par.width par) in
    let width = Fixed.width next in
    let logs =
      Array.init n_chunks (fun _ -> (log_table width, log_table 0))
    in
    let cxs = Array.make n_chunks None in
    Util.Par.share par ~n:n_chunks (fun c ->
        let cx = scratch () and tbl, masses = logs.(c) in
        let out = { mass; log = Some masses } in
        cxs.(c) <- Some cx;
        for s = c * n / n_chunks to ((c + 1) * n / n_chunks) - 1 do
          expand cx tbl out s
        done);
    Array.iteri
      (fun c (tbl, masses) ->
        for k = 0 to Fixed.length tbl - 1 do
          Fixed.add next (Fixed.keys tbl) (k * width) (Fixed.probs tbl) k
        done;
        for k = 0 to Fixed.length masses - 1 do
          Mass.add mass (Fixed.probs masses) k
        done;
        Option.iter finish cxs.(c))
      logs

  let run ~name ~width ~max_states ~budget ~par ~states ?(first = 0) ~last
      ?seed ~scratch ~layer ?(finish = ignore) ~answer () =
    Fixed.with_pair ~name ~width ~max_states @@ fun t0 t1 ->
    let seed = match seed with Some s -> s | None -> Array.make width 0 in
    Fixed.add t0 seed 0 [| 1. |] 0;
    let seq = { mass = Mass.create (); log = None } in
    let sc = scratch () in
    let cur = ref t0 and nxt = ref t1 and hwm = ref 0 and total = ref 0 in
    (* A layer's states are tallied before its budget check, so an
       aborted call still counts the states it built; the handler is set
       up once per call, not per layer, and the flush is written out
       twice so that no closure captures the tallies. *)
    (try
       for i = first to last do
         let curt = !cur and next = !nxt in
         let n = Fixed.length curt in
         total := !total + n;
         Fixed.note_layer_width n;
         Util.Timer.check budget;
         let expand = layer i (Fixed.keys curt) (Fixed.probs curt) in
         if Util.Par.width par <= 1 || n < default_min_par then
           for s = 0 to n - 1 do
             expand sc next seq s
           done
         else chunked ~par ~n ~scratch ~expand ~finish seq.mass next;
         hwm := max !hwm (max (Fixed.used_words curt) (Fixed.used_words next));
         Fixed.clear curt;
         cur := next;
         nxt := curt
       done
     with e ->
       let bt = Printexc.get_raw_backtrace () in
       let hwm = max !hwm (max (Fixed.used_words !cur) (Fixed.used_words !nxt)) in
       states := !states + !total;
       Fixed.flush_call ~states:!total ~hwm_words:hwm;
       Printexc.raise_with_backtrace e bt);
    finish sc;
    states := !states + !total;
    Fixed.flush_call ~states:!total ~hwm_words:!hwm;
    answer !cur seq.mass
end

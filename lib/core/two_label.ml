exception Unsupported of string

let max_states = ref 5_000_000

(* Observability: states are counted into a plain local int and flushed
   once per call. *)
let c_calls = Obs.counter "solver.two_label.calls"
let c_states = Obs.counter "solver.two_label.dp_states"
let h_states = Obs.histogram "solver.two_label.dp_states_per_call"

(* State: one word per tracked conjunction, [lv_0..lv_{a-1}; rv_0..rv_{b-1}],
   where a value is (position + 1) and 0 means "no item with that
   conjunction yet". A layer holds only the states that satisfy no edge
   yet; the answer is the mass that leaves them, added up as it leaves,
   so it is a sum of positive terms and stays accurate however small it
   is. After item i is inserted, a word whose edges are all dead
   (neither side has an item left to insert) can never make an edge fire
   again, so both kernels zero it before the state is emitted (paper
   Algorithm 4's violated-edge rule); states that differ only in such
   words merge.

   Which insertion positions satisfy the union is read off the state
   without stepping it (the range rule). In an unsatisfied state every
   edge has [lv >= rv] or a zero word, and inserting at j shifts the
   words at or past j by one, which keeps that order; so only a word
   item i carries can newly satisfy an edge. A left hit ([lv' = min(lv,
   j+1)]) satisfies an edge with [rv > 0] exactly when [j < rv]; a right
   hit ([rv' = max(rv, j+1)]) one with [lv > 0] exactly when [j >= lv];
   an item that carries both words of an edge satisfies it on the union
   of the two ranges. So the satisfying positions are the prefix
   [0, lo), [lo] the largest [rv] over left-hit edges, and the suffix
   [hi, i], [hi] the smallest positive [lv] over right-hit edges. A
   state sends [q * (Σ_{j<lo} π(i,j) + Σ_{j>=hi} π(i,j))] to the answer,
   read from per-layer prefix and suffix sums of π's row, and steps
   only the positions in [lo, hi).

   The boxed kernel keys a state on its a+b words as an int array in a
   {!Dp_table.Boxed} layer. The flat kernel packs the same words into
   [b]-bit fields (the smallest [b] with [2^b > m]), [62 / b] per int, so
   a state is one int whenever a+b <= 62 / b (every Polls union), and
   keeps each layer in this module's own fixed-width [table]: no offsets
   or lengths per state, and the insert is a call inside this module, so
   a small layer expands with no closure and no cross-module call per
   emission. Both kernels visit states in first-insertion order, add
   each state's satisfied mass in that order and emit in (state, j)
   order with identical arithmetic, so their contribution streams — and
   answers — are bit-identical (pinned by test/t_kernel.ml and the QA
   oracle). *)

(* Shared preamble output: the interned problem. Words [0 .. a-1] hold
   left minima, words [a .. a+b-1] right maxima; [word_hit.(k)] and
   [word_rem.(k)] are the {!Conj.match_row} and {!Conj.remaining_row} of
   the conjunction word [k] tracks. *)
type problem = {
  a : int; (* number of left conjunctions *)
  b : int; (* number of right conjunctions *)
  word_hit : bool array array;
  word_rem : int array array;
  edge_l : int array; (* edge -> its left word *)
  edge_r : int array; (* edge -> its right word (>= a) *)
}

(* Each role numbers its words in order of first use, through an array
   indexed by conjunction id (a union of [z] edges interns at most [2z]
   conjunctions). *)
let build_problem model lab pairs =
  let conj = Conj.create lab model in
  let z = List.length pairs in
  let role () = (Array.make (2 * z) (-1), Array.make z 0, ref 0) in
  let lefts = role () and rights = role () in
  let word (word_of, conjs, count) node =
    let c = Conj.intern conj node in
    if word_of.(c) < 0 then begin
      word_of.(c) <- !count;
      conjs.(!count) <- c;
      incr count
    end;
    word_of.(c)
  in
  let edge_l = Array.make z 0 and edge_r = Array.make z 0 in
  List.iteri
    (fun e (l, r) ->
      edge_l.(e) <- word lefts l;
      edge_r.(e) <- word rights r)
    pairs;
  let _, lconjs, a = lefts and _, rconjs, b = rights in
  let a = !a and b = !b in
  let word_conj = Array.append (Array.sub lconjs 0 a) (Array.sub rconjs 0 b) in
  {
    a;
    b;
    word_hit = Array.map (Conj.match_row conj) word_conj;
    word_rem = Array.map (Conj.remaining_row conj) word_conj;
    edge_l;
    edge_r = Array.map (fun r -> a + r) edge_r;
  }

(* Per-layer hoists shared by both kernels, filled on the calling domain
   before layer i expands and only read while it expands. *)
type layer = {
  hit : bool array; (* word -> item i carries its conjunction *)
  live : bool array; (* word -> it keeps a live edge once item i is in *)
  lhit : int array; (* right words of the edges whose left word item i hits *)
  rhit : int array; (* left words of the edges whose right word item i hits *)
  mutable n_lhit : int;
  mutable n_rhit : int;
  pi_row : float array; (* π(i, 0..i) *)
  pre : float array; (* pre.(j) = Σ_{j' < j} π(i, j'), j <= i + 1 *)
  suf : float array; (* suf.(j) = Σ_{j <= j' <= i} π(i, j'), j <= i + 1 *)
}

let layer ~m pr =
  let w = pr.a + pr.b and z = Array.length pr.edge_l in
  {
    hit = Array.make w false;
    live = Array.make w false;
    lhit = Array.make z 0;
    rhit = Array.make z 0;
    n_lhit = 0;
    n_rhit = 0;
    pi_row = Array.make m 0.;
    pre = Array.make (m + 1) 0.;
    suf = Array.make (m + 1) 0.;
  }

let fill_layer model pr i ly =
  let hit = ly.hit and live = ly.live in
  Array.fill live 0 (Array.length live) false;
  for k = 0 to Array.length hit - 1 do
    hit.(k) <- pr.word_hit.(k).(i)
  done;
  ly.n_lhit <- 0;
  ly.n_rhit <- 0;
  for e = 0 to Array.length pr.edge_l - 1 do
    let l = pr.edge_l.(e) and r = pr.edge_r.(e) in
    if pr.word_rem.(l).(i) > 0 || pr.word_rem.(r).(i) > 0 then begin
      live.(l) <- true;
      live.(r) <- true
    end;
    if hit.(l) then begin
      ly.lhit.(ly.n_lhit) <- r;
      ly.n_lhit <- ly.n_lhit + 1
    end;
    if hit.(r) then begin
      ly.rhit.(ly.n_rhit) <- l;
      ly.n_rhit <- ly.n_rhit + 1
    end
  done;
  Rim.Model.blit_pi_row model i ly.pi_row;
  let pi_row = ly.pi_row and pre = ly.pre and suf = ly.suf in
  pre.(0) <- 0.;
  for j = 0 to i do
    pre.(j + 1) <- pre.(j) +. pi_row.(j)
  done;
  suf.(i + 1) <- 0.;
  for j = i downto 0 do
    suf.(j) <- suf.(j + 1) +. pi_row.(j)
  done

(* The range rule on a state's words [vals] (its [a+b] values, so every
   word index in [lhit] and [rhit] reads in bounds): inserting item i at
   j satisfies the union iff [j < sat_lo] or [j >= sat_hi]. *)
let[@inline] sat_lo ly vals =
  let lhit = ly.lhit and lo = ref 0 in
  for e = 0 to ly.n_lhit - 1 do
    let rv = Array.unsafe_get vals (Array.unsafe_get lhit e) in
    if rv > !lo then lo := rv
  done;
  !lo

let[@inline] sat_hi ly vals i =
  let rhit = ly.rhit and hi = ref (i + 1) in
  for e = 0 to ly.n_rhit - 1 do
    let lv = Array.unsafe_get vals (Array.unsafe_get rhit e) in
    if lv > 0 && lv < !hi then hi := lv
  done;
  !hi

(* The mass a state of probability [q] sends to "satisfied" at layer i,
   for [lo > 0 || hi <= i] (otherwise it sends none). When the two
   ranges cover the row, all of [q] leaves: π's row sums to 1. *)
let[@inline] sat_mass ly ~lo ~hi q =
  if lo >= hi then q
  else q *. (Array.unsafe_get ly.pre lo +. Array.unsafe_get ly.suf hi)

(* The answer accumulates in [acc = [| sum; carry |]] by compensated
   (Neumaier) summation: a layer adds thousands of small masses to a
   larger sum, and a plain sum of a wide union's masses drifts by about
   1e-12 relative where this stays within a few ulps. The answer is
   [sum +. carry], or exactly 1 when no state is left unsatisfied after
   the last layer: then every ranking satisfies the union. *)
let[@inline] add_mass acc x =
  let s = Array.unsafe_get acc 0 in
  let t = s +. x in
  let lost = if s >= x then s -. t +. x else x -. t +. s in
  Array.unsafe_set acc 1 (Array.unsafe_get acc 1 +. lost);
  Array.unsafe_set acc 0 t

let answer ~survivors acc =
  if survivors = 0 then 1. else min 1. (acc.(0) +. acc.(1))

let run_boxed ~budget ~par ~states model pr =
  let m = Rim.Model.m model in
  let w = pr.a + pr.b in
  let table =
    ref (Dp_table.Boxed.create ~name:"Two_label" ~max_states:!max_states ())
  in
  let ly = layer ~m pr and acc = [| 0.; 0. |] in
  Dp_table.Boxed.add !table (Array.make w 0) 1.;
  for i = 0 to m - 1 do
    Util.Timer.check budget;
    let cur = !table in
    let n_states = Dp_table.Boxed.length cur in
    states := !states + n_states;
    let next =
      Dp_table.Boxed.create ~capacity:(2 * n_states) ~name:"Two_label"
        ~max_states:!max_states ()
    in
    fill_layer model pr i ly;
    let expand () s ~emit ~emit_prob =
      let st = Dp_table.Boxed.key cur s and q = Dp_table.Boxed.prob cur s in
      let lo = sat_lo ly st and hi = sat_hi ly st i in
      if lo > 0 || hi <= i then emit_prob (sat_mass ly ~lo ~hi q);
      for j = lo to hi - 1 do
        let st' =
          Array.mapi
            (fun k v -> Conj.step ~hit:ly.hit.(k) ~left:(k < pr.a) j v)
            st
        in
        Array.iteri (fun k l -> if not l then st'.(k) <- 0) ly.live;
        emit st' (q *. ly.pi_row.(j))
      done
    in
    Dp_par.run ~par ~n:n_states
      ~ctx:(fun () -> ())
      ~expand
      ~add:(Dp_table.Boxed.add next)
      ~add_prob:(add_mass acc)
      ();
    table := next
  done;
  answer ~survivors:(Dp_table.Boxed.length !table) acc

(* The flat kernel's layer table: fixed-width keys of [ints] packed ints
   (slot [s] holds [keys.(s * ints) ..]), numbered by first insertion,
   behind an open-addressing index (0 = empty, else slot + 1; linear
   probing, rehash at load 0.5). It is {!Dp_table.Flat}'s contract with
   the span bookkeeping taken out: every key of a call has the same
   width, so there are no per-slot offsets or lengths, and it lives in
   this module so the kernel's insert is a local, inlinable call. *)
type table = {
  mutable ints : int;
  mutable cap : int; (* the State_explosion cap *)
  mutable keys : int array;
  mutable probs : float array;
  mutable n : int;
  mutable index : int array;
  mutable mask : int;
}

(* Small enough to be born in the minor heap; a Polls m = 10 call's
   layers fit without growing. *)
let create_table () =
  {
    ints = 1;
    cap = 0;
    keys = Array.make 64 0;
    probs = Array.make 64 0.;
    n = 0;
    index = Array.make 128 0;
    mask = 127;
  }

let clear t =
  t.n <- 0;
  Array.fill t.index 0 (t.mask + 1) 0

let used_words t = t.n * t.ints

let retained t =
  Array.length t.keys + Array.length t.probs + Array.length t.index

(* Word mix plus a multiply-xorshift finalizer (DESIGN §13.4: the probe
   uses the low bits, and small position values cluster without it).
   The index order is never observable: slots are insertion-ordered. *)
let[@inline] hash_key buf off ints =
  let h = ref (ints + 1) in
  for k = off to off + ints - 1 do
    h := (!h * 0x9E3779B1) lxor Array.unsafe_get buf k
  done;
  let h = !h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let rehash t =
  let size = 2 * (t.mask + 1) in
  let index = Array.make size 0 and mask = size - 1 in
  for s = 0 to t.n - 1 do
    let i = ref (hash_key t.keys (s * t.ints) t.ints land mask) in
    while index.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    index.(!i) <- s + 1
  done;
  t.index <- index;
  t.mask <- mask

(* Slow path of [insert]: append the key at index slot [i] and return its
   slot; the caller stores the probability, so no float crosses this
   call boxed. *)
let add_new t buf off i =
  if t.n >= t.cap then
    raise (Dp_table.State_explosion { table = "Two_label"; cap = t.cap });
  let s = t.n and ints = t.ints in
  if (s + 1) * ints > Array.length t.keys then begin
    let keys = Array.make (max (2 * Array.length t.keys) ((s + 1) * ints)) 0 in
    Array.blit t.keys 0 keys 0 (s * ints);
    t.keys <- keys
  end;
  if s = Array.length t.probs then begin
    let probs = Array.make (2 * s) 0. in
    Array.blit t.probs 0 probs 0 s;
    t.probs <- probs
  end;
  Array.blit buf off t.keys (s * ints) ints;
  t.index.(i) <- s + 1;
  t.n <- s + 1;
  if 2 * t.n > t.mask + 1 then rehash t;
  s

(* Accumulate [p] onto the state whose key is [buf.(off .. off+ints-1)].
   Inlined at both call sites, so [p] stays unboxed. *)
let[@inline] insert t buf off p =
  let ints = t.ints in
  if off < 0 || off + ints > Array.length buf then
    invalid_arg "Two_label: key out of bounds";
  let index = t.index and mask = t.mask and keys = t.keys in
  let i = ref (hash_key buf off ints land mask) and go = ref true in
  while !go do
    let e = Array.unsafe_get index !i in
    if e = 0 then begin
      let s = add_new t buf off !i in
      t.probs.(s) <- p;
      go := false
    end
    else begin
      let s = e - 1 in
      let base = s * ints and k = ref 0 in
      while
        !k < ints
        && Array.unsafe_get keys (base + !k) = Array.unsafe_get buf (off + !k)
      do
        incr k
      done;
      if !k = ints then begin
        let probs = t.probs in
        Array.unsafe_set probs s (Array.unsafe_get probs s +. p);
        go := false
      end
      else i := (!i + 1) land mask
    end
  done

(* The calling domain's spare pair (see {!Dp_table.Spare}), kept while it
   totals at most [Dp_table.Flat.retain_cap_words]. *)
let spare : (table * table) Dp_table.Spare.t = Dp_table.Spare.make ()

let with_tables ~ints ~cap f =
  let reset t =
    clear t;
    t.ints <- ints;
    t.cap <- cap
  in
  Dp_table.Spare.with_ spare
    ~fresh:(fun () -> (create_table (), create_table ()))
    ~prepare:(fun (t0, t1) ->
      reset t0;
      reset t1)
    ~keep:(fun (t0, t1) ->
      retained t0 + retained t1 <= Dp_table.Flat.retain_cap_words)
    f

(* What the expansion reads. The field layout, fixed per call: word [x]
   lives in int [idx.(x)] at bit [sh.(x)], [bits] wide (the smallest
   [bits] with [2^bits > m]), [62 / bits] fields per int, so a state is
   [ints] ints. And the flat-only per-layer hoists, filled before layer
   i expands: each word's block of {!Conj.step_table} and each int's
   live-field mask. *)
type kernel = {
  w : int;
  ints : int;
  fmask : int; (* (1 lsl bits) - 1 *)
  idx : int array;
  sh : int array;
  stride : int; (* m + 1 *)
  steps : int array;
  row : int array;
  live_mask : int array;
}

let kernel ~m ~w =
  let bits = ref 1 in
  while 1 lsl !bits <= m do
    incr bits
  done;
  let bits = !bits in
  let fields = 62 / bits in
  let ints = (w + fields - 1) / fields in
  {
    w;
    ints;
    fmask = (1 lsl bits) - 1;
    idx = Array.init w (fun x -> x / fields);
    sh = Array.init w (fun x -> x mod fields * bits);
    stride = m + 1;
    steps = Conj.step_table m;
    row = Array.make w 0;
    live_mask = Array.make ints 0;
  }

(* Chunk-local scratch: the decoded words of the state being expanded,
   the packed successor and the float cell an emission's probability
   travels in on the chunked path. *)
type scratch = { vals : int array; buf : int array; cell : float array }

let scratch k =
  { vals = Array.make k.w 0; buf = Array.make k.ints 0; cell = [| 0. |] }

(* The expansion helpers below index without bounds checks: every
   per-word array ([idx], [sh], [row], [vals]) has [w] cells and
   every per-int array ([buf], [live_mask]) [ints], by construction in
   [run_flat] and [scratch]; [idx.(x) < ints]; a step-table index is
   below [4 m (m + 1)] because a row offset, [j] and a word value are
   below [4], [m] and [m + 1]; and a key slot [s < n] has its [ints]
   words below [n * ints]. *)

(* Unpack state [s] of [t] into [sc.vals]. *)
let[@inline] decode k sc t s =
  let base = s * k.ints and keys = t.keys and vals = sc.vals in
  let idx = k.idx and sh = k.sh and fmask = k.fmask in
  for x = 0 to k.w - 1 do
    Array.unsafe_set vals x
      ((Array.unsafe_get keys (base + Array.unsafe_get idx x)
       lsr Array.unsafe_get sh x)
      land fmask)
  done

(* Step every word for insertion position [j] and pack the stepped words
   into [sc.buf] (dead words included: see [mask_dead]). *)
let[@inline] step k sc j =
  let jb = j * k.stride and steps = k.steps and row = k.row in
  let vals = sc.vals and buf = sc.buf in
  let idx = k.idx and sh = k.sh in
  for n = 0 to k.ints - 1 do
    Array.unsafe_set buf n 0
  done;
  for x = 0 to k.w - 1 do
    let v =
      Array.unsafe_get steps
        (Array.unsafe_get row x + jb + Array.unsafe_get vals x)
    in
    let n = Array.unsafe_get idx x in
    Array.unsafe_set buf n
      (Array.unsafe_get buf n lor (v lsl Array.unsafe_get sh x))
  done

(* Zero the dead words of the packed successor in [sc.buf]. *)
let[@inline] mask_dead k sc =
  let buf = sc.buf and live_mask = k.live_mask in
  for n = 0 to k.ints - 1 do
    Array.unsafe_set buf n
      (Array.unsafe_get buf n land Array.unsafe_get live_mask n)
  done

(* The flat kernel. A layer under {!Dp_par.default_min_par} states (or a
   sequential pool) loops over its states here, adds each state's
   satisfied mass to the answer and inserts each surviving successor
   straight into the next table: no closure and no call out of this
   module per emission. A larger layer runs through {!Dp_par.run_flat}:
   a state's satisfied mass goes through [emit_prob] and its successors
   through [emit], and the chunk buffers replay in chunk order into the
   same accumulator and [insert]. Both paths add in state order and emit
   in (state, j) order, the orders the boxed kernel uses, so the answers
   are bit-identical. *)
let run_flat ~budget ~par ~states model pr =
  let m = Rim.Model.m model in
  let a = pr.a and w = pr.a + pr.b in
  let k = kernel ~m ~w in
  let ints = k.ints and idx = k.idx and sh = k.sh in
  let seq = scratch k and ly = layer ~m pr and acc = [| 0.; 0. |] in
  with_tables ~ints ~cap:!max_states @@ fun (t0, t1) ->
  let cur = ref t0 and nxt = ref t1 in
  let hwm = ref 0 in
  insert !cur (Array.make ints 0) 0 1.;
  for i = 0 to m - 1 do
    Util.Timer.check budget;
    let curt = !cur and next = !nxt in
    let n_states = curt.n in
    states := !states + n_states;
    Dp_table.Flat.note_layer_width n_states;
    fill_layer model pr i ly;
    Array.fill k.live_mask 0 ints 0;
    for x = 0 to w - 1 do
      k.row.(x) <- Conj.step_row m ~hit:ly.hit.(x) ~left:(x < a);
      if ly.live.(x) then
        k.live_mask.(idx.(x)) <-
          k.live_mask.(idx.(x)) lor (k.fmask lsl sh.(x))
    done;
    let pi_row = ly.pi_row in
    if Util.Par.width par <= 1 || n_states < Dp_par.default_min_par then
      for s = 0 to n_states - 1 do
        decode k seq curt s;
        let q = curt.probs.(s) in
        let lo = sat_lo ly seq.vals and hi = sat_hi ly seq.vals i in
        if lo > 0 || hi <= i then add_mass acc (sat_mass ly ~lo ~hi q);
        for j = lo to hi - 1 do
          step k seq j;
          mask_dead k seq;
          insert next seq.buf 0 (q *. pi_row.(j))
        done
      done
    else
      Dp_par.run_flat ~par ~n:n_states
        ~ctx:(fun () -> scratch k)
        ~expand:(fun sc s ~emit ~emit_prob ->
          decode k sc curt s;
          let q = curt.probs.(s) in
          let lo = sat_lo ly sc.vals and hi = sat_hi ly sc.vals i in
          if lo > 0 || hi <= i then begin
            sc.cell.(0) <- sat_mass ly ~lo ~hi q;
            emit_prob sc.cell 0
          end;
          for j = lo to hi - 1 do
            step k sc j;
            mask_dead k sc;
            sc.cell.(0) <- q *. pi_row.(j);
            emit sc.buf 0 ints sc.cell 0
          done)
        ~add:(fun buf off _ cell ci -> insert next buf off cell.(ci))
        ~add_prob:(fun cell ci -> add_mass acc cell.(ci))
        ();
    hwm := max !hwm (max (used_words curt) (used_words next));
    clear curt;
    cur := next;
    nxt := curt
  done;
  Dp_table.Flat.flush_call ~states:!states ~hwm_words:!hwm;
  answer ~survivors:!cur.n acc

let prob_edges ?(budget = Util.Timer.no_limit) ?(par = Util.Par.inline)
    ?(kernel = Kernel.default) model lab pairs =
  if pairs = [] then invalid_arg "Two_label.prob_edges: empty union";
  let pr = build_problem model lab pairs in
  let states = ref 0 in
  let result =
    match kernel with
    | Kernel.Boxed -> run_boxed ~budget ~par ~states model pr
    | Kernel.Flat -> run_flat ~budget ~par ~states model pr
  in
  Obs.Counter.incr c_calls;
  Obs.Counter.add c_states !states;
  Obs.Histogram.observe h_states !states;
  result

let prob ?budget ?par ?kernel model lab gu =
  let pairs =
    List.map
      (fun g ->
        if not (Prefs.Pattern.is_two_label g) then
          raise (Unsupported "Two_label.prob: pattern is not two-label");
        (Prefs.Pattern.node g 0, Prefs.Pattern.node g 1))
      (Prefs.Pattern_union.patterns gu)
  in
  prob_edges ?budget ?par ?kernel model lab pairs

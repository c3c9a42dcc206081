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
   again, so the kernel zeroes it before the state is emitted (paper
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

   The kernel packs a state's a+b words into [b]-bit fields (the
   smallest [b] with [2^b > m]), [62 / b] per int, so a state is one int
   whenever a+b <= 62 / b (every Polls union), and keeps each layer in a
   {!Dp_table.Fixed} table of that many ints per state. *)

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

(* Per-layer hoists, filled on the calling domain
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

(* The answer accumulates in a {!Dp_table.Mass} (compensated) sum. It is
   that total, or exactly 1 when no state is left unsatisfied after the
   last layer: then every ranking satisfies the union. *)
let answer ~survivors acc =
  if survivors = 0 then 1. else min 1. (Dp_table.Mass.total acc)

(* What the expansion reads. The field layout, fixed per call: word [x]
   lives in int [idx.(x)] at bit [sh.(x)], [bits] wide (the smallest
   [bits] with [2^bits > m]), [62 / bits] fields per int, so a state is
   [ints] ints. And the kernel's other per-layer hoists, filled before layer
   i expands: each word's block of {!Conj.step_table} and each int's
   live-field mask. *)
type kernel = {
  w : int;
  ints : int;
  fields : int; (* 62 / bits: words [n * fields ..] live in int [n] *)
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
    fields;
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
   travels in. *)
type scratch = { vals : int array; buf : int array; cell : float array }

let scratch k =
  { vals = Array.make k.w 0; buf = Array.make k.ints 0; cell = [| 0. |] }

(* The expansion helpers below index without bounds checks: every
   per-word array ([idx], [sh], [row], [vals]) has [w] cells and
   every per-int array ([buf], [live_mask]) [ints], by construction in
   [run] and [scratch]; [idx.(x) < ints]; a step-table index is
   below [4 m (m + 1)] because a row offset, [j] and a word value are
   below [4], [m] and [m + 1]; and a key slot [s < n] has its [ints]
   words below [n * ints]. *)

(* Unpack state [s] of a layer's [keys] into [sc.vals]. *)
let[@inline] decode k sc keys s =
  let base = s * k.ints and vals = sc.vals in
  let idx = k.idx and sh = k.sh and fmask = k.fmask in
  for x = 0 to k.w - 1 do
    Array.unsafe_set vals x
      ((Array.unsafe_get keys (base + Array.unsafe_get idx x)
       lsr Array.unsafe_get sh x)
      land fmask)
  done

(* Step every word for insertion position [j] and pack the stepped words
   into [sc.buf] int by int, zeroing the dead ones with [live_mask]. *)
let[@inline] step k sc j =
  let jb = j * k.stride and steps = k.steps and row = k.row in
  let vals = sc.vals and buf = sc.buf and sh = k.sh in
  let fields = k.fields and w = k.w in
  for n = 0 to k.ints - 1 do
    let last = (n + 1) * fields in
    let last = if last > w then w else last in
    let acc = ref 0 in
    for x = n * fields to last - 1 do
      let v =
        Array.unsafe_get steps
          (Array.unsafe_get row x + jb + Array.unsafe_get vals x)
      in
      acc := !acc lor (v lsl Array.unsafe_get sh x)
    done;
    Array.unsafe_set buf n (!acc land Array.unsafe_get k.live_mask n)
  done

(* The kernel, on {!Dp_table.Layers}: the hoist fills the layer's step
   rows and live-field masks, and a state adds its satisfied mass and
   emits its successors in (state, j) order. *)
let run ~budget ~par ~states model pr =
  let m = Rim.Model.m model in
  let a = pr.a and w = pr.a + pr.b in
  let k = kernel ~m ~w in
  let ints = k.ints and idx = k.idx and sh = k.sh in
  let ly = layer ~m pr in
  Dp_table.Layers.run ~name:"Two_label" ~width:ints ~max_states:!max_states
    ~budget ~par ~states ~last:(m - 1)
    ~scratch:(fun () -> scratch k)
    ~layer:(fun i keys probs ->
      fill_layer model pr i ly;
      Array.fill k.live_mask 0 ints 0;
      for x = 0 to w - 1 do
        k.row.(x) <- Conj.step_row m ~hit:ly.hit.(x) ~left:(x < a);
        if ly.live.(x) then
          k.live_mask.(idx.(x)) <-
            k.live_mask.(idx.(x)) lor (k.fmask lsl sh.(x))
      done;
      let pi_row = ly.pi_row in
      fun sc next out s ->
        decode k sc keys s;
        let q = probs.(s) and cell = sc.cell in
        let lo = sat_lo ly sc.vals and hi = sat_hi ly sc.vals i in
        if lo > 0 || hi <= i then begin
          cell.(0) <- sat_mass ly ~lo ~hi q;
          Dp_table.Layers.emit_mass out cell 0
        end;
        for j = lo to hi - 1 do
          step k sc j;
          cell.(0) <- q *. pi_row.(j);
          Dp_table.Fixed.add next sc.buf 0 cell 0
        done)
    ~answer:(fun last -> answer ~survivors:(Dp_table.Fixed.length last))
    ()

let count states =
  Obs.Counter.incr c_calls;
  Obs.Counter.add c_states states;
  Obs.Histogram.observe h_states states

(* Counted on both paths, so an aborted call ([State_explosion],
   [Out_of_time]) shows here as it does in [dp.flat.*]. *)
let prob_edges ?(budget = Util.Timer.no_limit) ?(par = Util.Par.inline) model
    lab pairs =
  if pairs = [] then invalid_arg "Two_label.prob_edges: empty union";
  let pr = build_problem model lab pairs in
  let states = ref 0 in
  match run ~budget ~par ~states model pr with
  | result ->
      count !states;
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      count !states;
      Printexc.raise_with_backtrace e bt

let prob ?budget ?par model lab gu =
  let pairs =
    List.map
      (fun g ->
        if not (Prefs.Pattern.is_two_label g) then
          raise (Unsupported "Two_label.prob: pattern is not two-label");
        (Prefs.Pattern.node g 0, Prefs.Pattern.node g 1))
      (Prefs.Pattern_union.patterns gu)
  in
  prob_edges ?budget ?par model lab pairs

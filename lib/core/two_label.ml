exception Unsupported of string

let max_states = ref 5_000_000

(* Observability (all no-ops unless [Obs.enable]d): states are counted
   into a plain local int and flushed once per call. *)
let c_calls = Obs.counter "solver.two_label.calls"
let c_states = Obs.counter "solver.two_label.dp_states"
let h_states = Obs.histogram "solver.two_label.dp_states_per_call"

(* State: one word per tracked conjunction, [lv_0..lv_{a-1}; rv_0..rv_{b-1}],
   where a value is (position + 1) and 0 means "no item with that
   conjunction yet". After item i is inserted, a word whose edges are all
   dead ({!Conj.edge_dead}: neither side has an item left to insert) can
   never make an edge fire again, so both kernels zero it before the state
   is emitted (paper Algorithm 4's violated-edge rule); states that differ
   only in such words merge. The boxed kernel keys a state on its a+b
   words as an int array; the flat kernel packs the same words into
   [b]-bit fields (the smallest [b] with [2^b > m]), [62 / b] per int, and
   stores the ints in a {!Dp_table.Flat} arena. Both kernels visit states
   in first-insertion order and expand with identical arithmetic, so their
   contribution streams — and answers — are bit-identical (pinned by
   test/t_kernel.ml and the QA oracle). *)

(* Shared preamble output: the interned problem. State word [k] tracks
   conjunction [word_conj.(k)]: words [0 .. a-1] hold left minima, words
   [a .. a+b-1] right maxima. *)
type problem = {
  conj : Conj.t;
  a : int; (* number of left conjunctions *)
  b : int; (* number of right conjunctions *)
  word_conj : int array;
  edge_l : int array; (* edge -> its left word *)
  edge_r : int array; (* edge -> its right word (>= a) *)
}

let build_problem model lab pairs =
  let sigma = Rim.Model.sigma model in
  let conj = Conj.create lab sigma in
  let lefts = Hashtbl.create 8 and rights = Hashtbl.create 8 in
  let intern_role tbl node =
    let c = Conj.intern conj node in
    match Hashtbl.find_opt tbl c with
    | Some k -> k
    | None ->
        let k = Hashtbl.length tbl in
        Hashtbl.add tbl c k;
        k
  in
  let edges =
    List.map (fun (l, r) -> (intern_role lefts l, intern_role rights r)) pairs
  in
  let a = Hashtbl.length lefts and b = Hashtbl.length rights in
  let word_conj = Array.make (a + b) 0 in
  Hashtbl.iter (fun c k -> word_conj.(k) <- c) lefts;
  Hashtbl.iter (fun c k -> word_conj.(a + k) <- c) rights;
  let edge_l = Array.of_list (List.map fst edges)
  and edge_r = Array.of_list (List.map (fun (_, rk) -> a + rk) edges) in
  (* The lookup tables must exist before any parallel layer reads them. *)
  Conj.freeze conj;
  { conj; a; b; word_conj; edge_l; edge_r }

(* A state satisfies G when some edge has min(l) < max(r); [vals] holds
   the a+b word values. A loop over the edge arrays: no closure, no
   allocation. *)
let satisfies pr vals =
  let el = pr.edge_l and er = pr.edge_r in
  let sat = ref false and e = ref 0 in
  while (not !sat) && !e < Array.length el do
    let lv = vals.(el.(!e)) and rv = vals.(er.(!e)) in
    if lv > 0 && rv > 0 && lv < rv then sat := true else incr e
  done;
  !sat

(* Per-layer hoists shared by both kernels, filled on the calling domain
   before layer i expands: whether item i carries each word's
   conjunction, and whether each word still has a live edge once item i
   is in. *)
let fill_layer pr i ~hit ~live =
  Array.fill live 0 (Array.length live) false;
  for k = 0 to Array.length hit - 1 do
    hit.(k) <- Conj.matches pr.conj pr.word_conj.(k) i
  done;
  for e = 0 to Array.length pr.edge_l - 1 do
    let l = pr.edge_l.(e) and r = pr.edge_r.(e) in
    if not (Conj.edge_dead pr.conj pr.word_conj.(l) pr.word_conj.(r) i) then begin
      live.(l) <- true;
      live.(r) <- true
    end
  done

let run_boxed ~budget ~par ~obs ~states model pr =
  let m = Rim.Model.m model in
  let w = pr.a + pr.b in
  let table =
    ref (Dp_table.Boxed.create ~name:"Two_label" ~max_states:!max_states ())
  in
  let hit = Array.make w false and live = Array.make w false in
  Dp_table.Boxed.add !table (Array.make w 0) 1.;
  for i = 0 to m - 1 do
    Util.Timer.check budget;
    let cur = !table in
    let n_states = Dp_table.Boxed.length cur in
    if obs then states := !states + n_states;
    let next =
      Dp_table.Boxed.create ~capacity:(2 * n_states) ~name:"Two_label"
        ~max_states:!max_states ()
    in
    fill_layer pr i ~hit ~live;
    let expand () s ~emit ~emit_prob:_ =
      let st = Dp_table.Boxed.key cur s and q = Dp_table.Boxed.prob cur s in
      for j = 0 to i do
        let st' =
          Array.mapi (fun k v -> Conj.step ~hit:hit.(k) ~left:(k < pr.a) j v) st
        in
        if not (satisfies pr st') then begin
          Array.iteri (fun k l -> if not l then st'.(k) <- 0) live;
          emit st' (q *. Rim.Model.pi model i j)
        end
      done
    in
    Dp_par.run ~par ~n:n_states
      ~ctx:(fun () -> ())
      ~expand
      ~add:(Dp_table.Boxed.add next)
      ~add_prob:(fun _ -> ())
      ();
    table := next
  done;
  max 0. (1. -. Dp_table.Boxed.sum !table)

(* The flat kernel's field layout: word [k] lives in int [idx.(k)] at bit
   [sh.(k)], [bits] wide; a state is [ints] ints. *)
type layout = { bits : int; ints : int; idx : int array; sh : int array }

let layout ~m ~w =
  let bits = ref 1 in
  while 1 lsl !bits <= m do
    incr bits
  done;
  let bits = !bits in
  let fields = 62 / bits in
  {
    bits;
    ints = (w + fields - 1) / fields;
    idx = Array.init w (fun k -> k / fields);
    sh = Array.init w (fun k -> k mod fields * bits);
  }

(* Chunk-local scratch of the flat kernel: the decoded words of the state
   being expanded, their stepped values, the packed emission buffer and
   the float cell its probability travels in. *)
type scratch = {
  vals : int array;
  nv : int array;
  buf : int array;
  cell : float array;
}

(* The flat kernel's expansion reads only arrays hoisted before the
   layer starts — the current table's arena and slot arrays, π's row i,
   each word's block of {!Conj.step_table} and each int's live-field
   mask — so it allocates nothing and calls nothing outside this module
   except the emission itself. *)
let run_flat ~budget ~par ~obs ~states model pr =
  let m = Rim.Model.m model in
  let a = pr.a and w = pr.a + pr.b in
  let { bits; ints; idx; sh } = layout ~m ~w in
  let mask = (1 lsl bits) - 1 and stride = m + 1 in
  let steps = Conj.step_table m in
  Dp_table.Flat.with_pair ~name:"Two_label" ~max_states:!max_states
  @@ fun t0 t1 ->
  let cur = ref t0 and nxt = ref t1 in
  let hwm = ref 0 in
  let pi_row = Array.make m 0. in
  let hit = Array.make w false and live = Array.make w false in
  let row = Array.make w 0 and live_mask = Array.make ints 0 in
  Dp_table.Flat.add !cur (Array.make ints 0) 0 ints 1.;
  for i = 0 to m - 1 do
    Util.Timer.check budget;
    let curt = !cur and next = !nxt in
    let n_states = Dp_table.Flat.length curt in
    if obs then begin
      states := !states + n_states;
      Dp_table.Flat.note_layer_width n_states
    end;
    Rim.Model.blit_pi_row model i pi_row;
    fill_layer pr i ~hit ~live;
    Array.fill live_mask 0 ints 0;
    for k = 0 to w - 1 do
      row.(k) <- Conj.step_row m ~hit:hit.(k) ~left:(k < a);
      if live.(k) then
        live_mask.(idx.(k)) <- live_mask.(idx.(k)) lor (mask lsl sh.(k))
    done;
    let data = Dp_table.Flat.data curt
    and offs = Dp_table.Flat.offs curt
    and probs = Dp_table.Flat.probs curt in
    let expand sc s ~emit ~emit_prob:_ =
      let off = offs.(s) and q = probs.(s) in
      let vals = sc.vals and nv = sc.nv and buf = sc.buf and cell = sc.cell in
      for k = 0 to w - 1 do
        vals.(k) <- (data.(off + idx.(k)) lsr sh.(k)) land mask
      done;
      for j = 0 to i do
        let jb = j * stride in
        for k = 0 to w - 1 do
          nv.(k) <- steps.(row.(k) + jb + vals.(k))
        done;
        if not (satisfies pr nv) then begin
          for n = 0 to ints - 1 do
            buf.(n) <- 0
          done;
          for k = 0 to w - 1 do
            buf.(idx.(k)) <- buf.(idx.(k)) lor (nv.(k) lsl sh.(k))
          done;
          for n = 0 to ints - 1 do
            buf.(n) <- buf.(n) land live_mask.(n)
          done;
          cell.(0) <- q *. pi_row.(j);
          emit buf 0 ints cell 0
        end
      done
    in
    Dp_par.run_flat ~par ~n:n_states
      ~ctx:(fun () ->
        {
          vals = Array.make w 0;
          nv = Array.make w 0;
          buf = Array.make ints 0;
          cell = [| 0. |];
        })
      ~expand
      ~add:(Dp_table.Flat.add_cell next)
      ~add_prob:(fun _ _ -> ())
      ();
    if obs then
      hwm :=
        max !hwm
          (max (Dp_table.Flat.used_words curt) (Dp_table.Flat.used_words next));
    Dp_table.Flat.clear curt;
    cur := next;
    nxt := curt
  done;
  if obs then Dp_table.Flat.flush_call ~states:!states ~hwm_words:!hwm;
  max 0. (1. -. Dp_table.Flat.sum !cur)

let prob_edges ?(budget = Util.Timer.no_limit) ?(par = Util.Par.inline)
    ?(kernel = Kernel.default) model lab pairs =
  if pairs = [] then invalid_arg "Two_label.prob_edges: empty union";
  let pr = build_problem model lab pairs in
  let obs = Obs.enabled () in
  let states = ref 0 in
  let result =
    match kernel with
    | Kernel.Boxed -> run_boxed ~budget ~par ~obs ~states model pr
    | Kernel.Flat -> run_flat ~budget ~par ~obs ~states model pr
  in
  if obs then begin
    Obs.Counter.incr c_calls;
    Obs.Counter.add c_states !states;
    Obs.Histogram.observe h_states !states
  end;
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

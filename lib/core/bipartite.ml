exception Unsupported of string

let max_states = ref 5_000_000

(* Observability: counted into plain local ints inside the DP and flushed
   once per call. *)
let c_calls = Obs.counter "solver.bipartite.calls"
let c_states = Obs.counter "solver.bipartite.dp_states"
let c_edges_pruned = Obs.counter "solver.bipartite.edges_pruned"
let c_patterns_pruned = Obs.counter "solver.bipartite.patterns_pruned"
let h_states = Obs.histogram "solver.bipartite.dp_states_per_call"
let c_basic_calls = Obs.counter "solver.bipartite_basic.calls"
let c_basic_states = Obs.counter "solver.bipartite_basic.dp_states"

(* Tracks are (conjunction, role) pairs; a conjunction used on both sides of
   edges is tracked twice (min position as L, max position as R). *)

type ctx = {
  model : Rim.Model.t;
  conj : Conj.t;
  n_tracks : int;
  track_conj : int array; (* track id -> conjunction id *)
  track_is_left : bool array;
}

let build_ctx model lab pairs_per_pattern =
  let conj = Conj.create lab model in
  let tracks = Hashtbl.create 16 in
  let intern_track node is_left =
    let c = Conj.intern conj node in
    let key = (c, is_left) in
    match Hashtbl.find_opt tracks key with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tracks in
        Hashtbl.add tracks key id;
        id
  in
  let patterns =
    List.map
      (List.map (fun (l, r) -> (intern_track l true, intern_track r false)))
      pairs_per_pattern
  in
  let n_tracks = Hashtbl.length tracks in
  let track_conj = Array.make n_tracks 0 and track_is_left = Array.make n_tracks false in
  Hashtbl.iter
    (fun (c, is_left) id ->
      track_conj.(id) <- c;
      track_is_left.(id) <- is_left)
    tracks;
  ({ model; conj; n_tracks; track_conj; track_is_left }, patterns)

(* Per-layer hoists of the kernels: π's row i, per track the block
   of {!Conj.step_table} for its role and whether item i carries its
   conjunction, and per track whether no item after i carries it (an
   unset side can then never be filled). Filled once per layer on the
   calling domain, read-only while the layer expands; a track moves from
   [v] to [steps.(row.(t) + (j * stride) + v)] when item i lands at [j]. *)
type layer = {
  pi_row : float array;
  steps : int array;
  stride : int;
  row : int array;
  exhausted : bool array;
}

let make_layer ctx =
  let m = Rim.Model.m ctx.model in
  {
    pi_row = Array.make m 0.;
    steps = Conj.step_table m;
    stride = m + 1;
    row = Array.make ctx.n_tracks 0;
    exhausted = Array.make ctx.n_tracks false;
  }

let fill_layer ctx ly i =
  let m = Rim.Model.m ctx.model in
  Rim.Model.blit_pi_row ctx.model i ly.pi_row;
  for t = 0 to ctx.n_tracks - 1 do
    let c = ctx.track_conj.(t) in
    ly.row.(t) <-
      Conj.step_row m ~hit:(Conj.matches ctx.conj c i) ~left:ctx.track_is_left.(t);
    ly.exhausted.(t) <- Conj.exhausted ctx.conj c i
  done

(* Static feasibility: an edge with an empty-side conjunction can never be
   satisfied. Returns the surviving patterns. *)
let statically_feasible ctx patterns =
  List.filter
    (fun edges ->
      List.for_all
        (fun (l, r) ->
          Conj.total ctx.conj ctx.track_conj.(l) > 0
          && Conj.total ctx.conj ctx.track_conj.(r) > 0)
        edges)
    patterns

(* ------------------------------------------------------------------ *)
(* Optimized solver (Algorithm 4)                                      *)
(* ------------------------------------------------------------------ *)

(* The canonical form of a state's uncertain structure: patterns sorted
   as pair lists (the kernel keeps exactly this ordering on integer
   spans). *)
let canonical_structure edges_per_pattern =
  List.sort compare (List.map (List.sort compare) edges_per_pattern)

(* State encoding: the uncertain structure is spelled into the state
   words themselves, so no interner (and no cross-chunk interner
   coordination) is needed — state equality is structure+values
   equality on the key words directly:

     [n_pats;
      n_edges_1; l; r; l; r; ...;      (pattern 1, pairs ascending)
      ...;                             (patterns in ascending pair-list order)
      v_t1; v_t2; ...;                 (values of tracked tracks, ascending id)
      0; ...]                          (padding to the seed state's length)

   The pattern spans are kept in exactly the order the
   [canonical_structure] sort produces, and the value suffix in
   ascending track-id order. The words before the padding delimit
   themselves (the structure fixes how many values follow), and a state
   only loses edges and tracks, so every state fits the seed's length
   and two padded states are equal iff their structures and values
   are. *)

let encode_structure key =
  let words = ref [] in
  let n = ref 0 in
  List.iter
    (fun edges ->
      incr n;
      words := !words @ (List.length edges :: List.concat_map (fun (l, r) -> [ l; r ]) edges))
    key;
  Array.of_list (!n :: !words)

(* Lexicographic order of two pattern spans (flattened (l, r) pairs in
   [edges]), matching OCaml's polymorphic [compare] on (int * int) list:
   pairwise pair comparison, equal prefixes order by length. *)
let span_compare (edges : int array) off1 ne1 off2 ne2 =
  let c = ref 0 and k = ref 0 in
  while !c = 0 && (!k < ne1 || !k < ne2) do
    if !k = ne1 then c := -1
    else if !k = ne2 then c := 1
    else begin
      let l1 = edges.(off1 + (2 * !k)) and l2 = edges.(off2 + (2 * !k)) in
      if l1 <> l2 then c := compare l1 l2
      else
        let r1 = edges.(off1 + (2 * !k) + 1)
        and r2 = edges.(off2 + (2 * !k) + 1) in
        if r1 <> r2 then c := compare r1 r2 else incr k
    end
  done;
  !c

(* Chunk-local scratch of the optimized solver; all arrays are
   sized once from the initial structure (states only ever shrink). *)
type opt_scratch = {
  fs_buf : int array; (* emission buffer: structure + vals'' *)
  fs_edges : int array; (* surviving uncertain pairs, flattened *)
  fs_span_off : int array; (* surviving pattern -> offset into fs_edges *)
  fs_span_ne : int array; (* surviving pattern -> uncertain edge count *)
  fs_order : int array; (* surviving pattern sort permutation *)
  fs_vals : int array; (* updated values by current-state slot *)
  fs_slot : int array; (* track -> slot in current state (stamped) *)
  fs_slot_stamp : int array;
  fs_tracked : int array; (* slot -> track in current state *)
  fs_new : int array; (* stamp: track present in emitted structure *)
  fs_cell : float array; (* the emission's probability *)
  mutable fs_stamp : int;
  fs_edges_pruned : int ref;
  fs_patterns_pruned : int ref;
}

let optimized ~budget ~par ~states ~edges_pruned ~patterns_pruned
    ctx feasible =
  let m = Rim.Model.m ctx.model in
  let key0 = canonical_structure feasible in
  let struct0 = encode_structure key0 in
  let np0 = struct0.(0) in
  let struct_len0 = Array.length struct0 in
  let total_pairs0 = (struct_len0 - 1 - np0) / 2 in
  let tracked0 =
    List.sort_uniq compare
      (List.concat_map (List.concat_map (fun (l, r) -> [ l; r ])) key0)
  in
  let width = struct_len0 + List.length tracked0 in
  let seed = Array.append struct0 (Array.make (List.length tracked0) 0) in
  let ly = make_layer ctx in
  let scratch () =
    {
      fs_buf = Array.make width 0;
      fs_edges = Array.make (max 1 (2 * total_pairs0)) 0;
      fs_span_off = Array.make (max 1 np0) 0;
      fs_span_ne = Array.make (max 1 np0) 0;
      fs_order = Array.make (max 1 np0) 0;
      fs_vals = Array.make (max 1 ctx.n_tracks) 0;
      fs_slot = Array.make (max 1 ctx.n_tracks) 0;
      fs_slot_stamp = Array.make (max 1 ctx.n_tracks) 0;
      fs_tracked = Array.make (max 1 ctx.n_tracks) 0;
      fs_new = Array.make (max 1 ctx.n_tracks) 0;
      fs_cell = [| 0. |];
      fs_stamp = 0;
      fs_edges_pruned = ref 0;
      fs_patterns_pruned = ref 0;
    }
  in
  Dp_table.Layers.run ~name:"Bipartite" ~width ~max_states:!max_states ~budget
    ~par ~states ~last:(m - 1) ~seed ~scratch
    ~layer:(fun i keys probs ->
      fill_layer ctx ly i;
      let pi_row = ly.pi_row and steps = ly.steps and row = ly.row in
      let stride = ly.stride and exhausted = ly.exhausted in
      fun sc next out s ->
        let o = s * width and q = probs.(s) in
        let cell = sc.fs_cell in
        let np = keys.(o) in
        (* Decode the slot map of this state's tracked set (ascending id),
           stamping instead of clearing. *)
        sc.fs_stamp <- sc.fs_stamp + 1;
        let stamp = sc.fs_stamp in
        let pos = ref (o + 1) in
        for _p = 0 to np - 1 do
          let ne = keys.(!pos) in
          incr pos;
          for _e = 0 to ne - 1 do
            sc.fs_slot_stamp.(keys.(!pos)) <- stamp;
            sc.fs_slot_stamp.(keys.(!pos + 1)) <- stamp;
            pos := !pos + 2
          done
        done;
        let struct_len = !pos - o in
        let n_tracked = ref 0 in
        for t = 0 to ctx.n_tracks - 1 do
          if sc.fs_slot_stamp.(t) = stamp then begin
            sc.fs_slot.(t) <- !n_tracked;
            sc.fs_tracked.(!n_tracked) <- t;
            incr n_tracked
          end
        done;
        let n_tracked = !n_tracked in
        let vals_base = o + struct_len in
        for j = 0 to i do
          let p' = q *. pi_row.(j) in
          if p' > 0. then begin
            cell.(0) <- p';
            for k = 0 to n_tracked - 1 do
              let t = sc.fs_tracked.(k) in
              sc.fs_vals.(k) <-
                steps.(row.(t) + (j * stride) + keys.(vals_base + k))
            done;
            (* Re-evaluate uncertain edges, writing survivors per pattern
               into fs_edges (pairs keep their in-pattern order, which is
               ascending — filtering a sorted span). *)
            let satisfied_pattern = ref false in
            let n_new = ref 0 and ew = ref 0 in
            let pos = ref (o + 1) in
            for _p = 0 to np - 1 do
              let ne = keys.(!pos) in
              incr pos;
              let violated = ref false in
              let span_start = !ew in
              for _e = 0 to ne - 1 do
                let l = keys.(!pos) and r = keys.(!pos + 1) in
                pos := !pos + 2;
                let lv = sc.fs_vals.(sc.fs_slot.(l))
                and rv = sc.fs_vals.(sc.fs_slot.(r)) in
                if lv > 0 && rv > 0 && lv < rv then begin
                  incr sc.fs_edges_pruned
                end
                else if exhausted.(l) && exhausted.(r) then begin
                  (* Neither side can take a new item: Algorithm 4's
                     violated edge. *)
                  incr sc.fs_edges_pruned;
                  violated := true
                end
                else begin
                  sc.fs_edges.(!ew) <- l;
                  sc.fs_edges.(!ew + 1) <- r;
                  ew := !ew + 2
                end
              done;
              if !violated then begin
                incr sc.fs_patterns_pruned;
                ew := span_start
              end
              else if !ew = span_start then begin
                incr sc.fs_patterns_pruned;
                satisfied_pattern := true
              end
              else begin
                sc.fs_span_off.(!n_new) <- span_start;
                sc.fs_span_ne.(!n_new) <- (!ew - span_start) / 2;
                incr n_new
              end
            done;
            if !satisfied_pattern then Dp_table.Layers.emit_mass out cell 0
            else if !n_new > 0 then begin
              let n_new = !n_new in
              (* Sort surviving spans into the canonical pattern order. *)
              let order = sc.fs_order in
              for x = 0 to n_new - 1 do
                order.(x) <- x
              done;
              for x = 1 to n_new - 1 do
                let v = order.(x) in
                let y = ref x in
                while
                  !y > 0
                  && span_compare sc.fs_edges
                       sc.fs_span_off.(order.(!y - 1))
                       sc.fs_span_ne.(order.(!y - 1))
                       sc.fs_span_off.(v) sc.fs_span_ne.(v)
                     > 0
                do
                  order.(!y) <- order.(!y - 1);
                  decr y
                done;
                order.(!y) <- v
              done;
              (* New tracked set. *)
              sc.fs_stamp <- sc.fs_stamp + 1;
              let stamp2 = sc.fs_stamp in
              for x = 0 to n_new - 1 do
                let off = sc.fs_span_off.(x) and ne = sc.fs_span_ne.(x) in
                for e = 0 to ne - 1 do
                  sc.fs_new.(sc.fs_edges.(off + (2 * e))) <- stamp2;
                  sc.fs_new.(sc.fs_edges.(off + (2 * e) + 1)) <- stamp2
                done
              done;
              (* Assemble the emission: structure then values. *)
              let buf = sc.fs_buf in
              buf.(0) <- n_new;
              let w = ref 1 in
              for x = 0 to n_new - 1 do
                let sp = order.(x) in
                let ne = sc.fs_span_ne.(sp) in
                buf.(!w) <- ne;
                incr w;
                Array.blit sc.fs_edges sc.fs_span_off.(sp) buf !w (2 * ne);
                w := !w + (2 * ne)
              done;
              for t = 0 to ctx.n_tracks - 1 do
                if sc.fs_new.(t) = stamp2 then begin
                  buf.(!w) <- sc.fs_vals.(sc.fs_slot.(t));
                  incr w
                end
              done;
              Array.fill buf !w (width - !w) 0;
              Dp_table.Fixed.add next buf 0 cell 0
            end
          end
        done)
    ~finish:(fun sc ->
      edges_pruned := !edges_pruned + !(sc.fs_edges_pruned);
      patterns_pruned := !patterns_pruned + !(sc.fs_patterns_pruned))
    ~answer:(fun _ acc -> min 1. (Dp_table.Mass.total acc))
    ()

(* The solvers' counters are flushed on both paths, so an aborted call
   ([State_explosion], [Out_of_time]) shows in them as it does in
   [dp.flat.*]. *)
let count_optimized ~states ~edges_pruned ~patterns_pruned =
  Obs.Counter.incr c_calls;
  Obs.Counter.add c_states states;
  Obs.Counter.add c_edges_pruned edges_pruned;
  Obs.Counter.add c_patterns_pruned patterns_pruned;
  Obs.Histogram.observe h_states states

let run_optimized ?(budget = Util.Timer.no_limit) ?(par = Util.Par.inline) ctx
    patterns =
  match statically_feasible ctx patterns with
  | [] -> 0.
  | feasible when List.exists (fun edges -> edges = []) feasible ->
      (* A pattern with no (remaining) edge constraints is always satisfied. *)
      1.
  | feasible -> (
      Conj.freeze ctx.conj;
      let states = ref 0 and edges_pruned = ref 0 and patterns_pruned = ref 0 in
      match
        optimized ~budget ~par ~states ~edges_pruned ~patterns_pruned ctx
          feasible
      with
      | result ->
          count_optimized ~states:!states ~edges_pruned:!edges_pruned
            ~patterns_pruned:!patterns_pruned;
          result
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          count_optimized ~states:!states ~edges_pruned:!edges_pruned
            ~patterns_pruned:!patterns_pruned;
          Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Basic solver (§4.3.1): full tracking, classification at the end.    *)
(* ------------------------------------------------------------------ *)

(* The final classification over edge arrays: pattern -> flattened
   [l; r; l; r; ...] track pairs. A state (track values at [vals.(off
   ..)]) satisfies the union when some pattern has every edge with
   min(l) < max(r). *)
let pattern_arrays feasible =
  Array.of_list
    (List.map
       (fun edges -> Array.of_list (List.concat_map (fun (l, r) -> [ l; r ]) edges))
       feasible)

let union_satisfied pats vals off =
  let sat = ref false and p = ref 0 in
  while (not !sat) && !p < Array.length pats do
    let e = pats.(!p) in
    let all = ref true and k = ref 0 in
    while !all && !k < Array.length e do
      let lv = vals.(off + e.(!k)) and rv = vals.(off + e.(!k + 1)) in
      if lv > 0 && rv > 0 && lv < rv then k := !k + 2 else all := false
    done;
    if !all then sat := true else incr p
  done;
  !sat

(* Chunk-local scratch of the basic solver. *)
type basic_scratch = { bs_buf : int array; bs_cell : float array }

let basic ~budget ~par ~states ctx feasible =
  let m = Rim.Model.m ctx.model in
  let w = ctx.n_tracks in
  let ly = make_layer ctx in
  Dp_table.Layers.run ~name:"Bipartite (basic)" ~width:w
    ~max_states:!max_states ~budget ~par ~states ~last:(m - 1)
    ~scratch:(fun () -> { bs_buf = Array.make w 0; bs_cell = [| 0. |] })
    ~layer:(fun i keys probs ->
      fill_layer ctx ly i;
      let pi_row = ly.pi_row and steps = ly.steps and row = ly.row in
      let stride = ly.stride in
      fun sc next _ s ->
        let off = s * w and q = probs.(s) in
        let buf = sc.bs_buf and cell = sc.bs_cell in
        for j = 0 to i do
          let p' = q *. pi_row.(j) in
          if p' > 0. then begin
            for t = 0 to w - 1 do
              buf.(t) <- steps.(row.(t) + (j * stride) + keys.(off + t))
            done;
            cell.(0) <- p';
            Dp_table.Fixed.add next buf 0 cell 0
          end
        done)
    ~answer:(fun final acc ->
      let pats = pattern_arrays feasible in
      let keys = Dp_table.Fixed.keys final in
      let probs = Dp_table.Fixed.probs final in
      for s = 0 to Dp_table.Fixed.length final - 1 do
        if union_satisfied pats keys (s * w) then Dp_table.Mass.add acc probs s
      done;
      Dp_table.Mass.total acc)
    ()

let count_basic states =
  Obs.Counter.incr c_basic_calls;
  Obs.Counter.add c_basic_states states

let run_basic ?(budget = Util.Timer.no_limit) ?(par = Util.Par.inline) ctx
    patterns =
  match statically_feasible ctx patterns with
  | [] -> 0.
  | feasible when List.exists (fun edges -> edges = []) feasible -> 1.
  | feasible -> (
      Conj.freeze ctx.conj;
      let states = ref 0 in
      match basic ~budget ~par ~states ctx feasible with
      | result ->
          count_basic !states;
          result
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          count_basic !states;
          Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

let pairs_of_pattern g =
  match Prefs.Pattern.bipartite_roles g with
  | None -> raise (Unsupported "Bipartite: pattern has a node that is both source and target")
  | Some _roles ->
      List.map
        (fun (a, b) -> (Prefs.Pattern.node g a, Prefs.Pattern.node g b))
        (Prefs.Pattern.edges g)

(* Isolated nodes impose only a witness-existence condition. A witness
   must be an item of σ (σ's inverse decides, as in Conj): an item the
   labeling knows but σ lacks never appears in a ranking. *)
let isolated_nodes_ok model lab g =
  match Prefs.Pattern.bipartite_roles g with
  | None -> raise (Unsupported "Bipartite: pattern is not bipartite")
  | Some roles ->
      let pos = Rim.Model.positions model in
      let in_sigma x = x < Array.length pos && pos.(x) >= 0 in
      let ok = ref true in
      Array.iteri
        (fun v role ->
          if
            role = `Iso
            && not
                 (List.exists in_sigma
                    (Prefs.Labeling.items_with_all lab (Prefs.Pattern.node g v)))
          then ok := false)
        roles;
      !ok

let union_to_constraint_sets model lab gu =
  List.filter_map
    (fun g ->
      if isolated_nodes_ok model lab g then Some (pairs_of_pattern g) else None)
    (Prefs.Pattern_union.patterns gu)

let prob_constraint_sets ?budget ?par model lab sets =
  if sets = [] then 0.
  else
    let ctx, patterns = build_ctx model lab sets in
    run_optimized ?budget ?par ctx patterns

let prob ?budget ?par model lab gu =
  match union_to_constraint_sets model lab gu with
  | [] -> 0.
  | sets ->
      let ctx, patterns = build_ctx model lab sets in
      run_optimized ?budget ?par ctx patterns

let prob_basic ?budget ?par model lab gu =
  match union_to_constraint_sets model lab gu with
  | [] -> 0.
  | sets ->
      let ctx, patterns = build_ctx model lab sets in
      run_basic ?budget ?par ctx patterns

let max_states = ref 2_000_000

(* Observability: states are counted into a plain local int and flushed
   once per call. *)
let c_calls = Obs.counter "solver.po.calls"
let c_states = Obs.counter "solver.po.dp_states"

(* State: one word per tracked item (slot order), its absolute position
   + 1 in the partial ranking, or 0 before it is inserted. Only items
   with an edge are tracked: an isolated item of σ constrains nothing.
   A word is read only when one of the item's neighbours is inserted,
   so once the item and all its neighbours are in, its word is dead:
   the step that completes them zeroes it, and states that differ only
   in dead words merge (the two-label DP's dead-word rule, item-side).
   A zero word is then never read as "not inserted yet" by a later
   insertion, because no later insertion is a neighbour of it.
   Layers live in {!Dp_table.Fixed} tables of [t] ints per state, so
   states are numbered and summed in first-insertion order, never in
   hash order. *)
type problem = {
  t : int; (* tracked items *)
  first : int; (* σ step of the first tracked item *)
  last : int; (* σ step of the last tracked item *)
  slot_at : int array; (* σ step -> slot of its item, or -1 *)
  preds : int array array; (* slot -> slots that must precede it *)
  succs : int array array; (* slot -> slots it must precede *)
  dies : int array array; (* σ step -> slots whose word it kills *)
}

let build_problem model po =
  let pos = Rim.Model.positions model in
  let step item =
    if item < 0 || item >= Array.length pos || pos.(item) < 0 then
      invalid_arg "Po_solver.prob: partial order mentions an unknown item";
    pos.(item)
  in
  List.iter (fun item -> ignore (step item)) (Prefs.Partial_order.items po);
  let edges = Prefs.Partial_order.edges po in
  let tracked =
    Array.of_list
      (List.sort_uniq compare (List.concat_map (fun (a, b) -> [ a; b ]) edges))
  in
  let t = Array.length tracked in
  let slot item =
    let rec find k = if tracked.(k) = item then k else find (k + 1) in
    find 0
  in
  let slot_at = Array.make (Rim.Model.m model) (-1) in
  Array.iteri (fun k item -> slot_at.(step item) <- k) tracked;
  let steps = Array.map step tracked in
  let around pick =
    Array.init t (fun k ->
        Array.of_list (List.filter_map (fun e -> pick k e) edges))
  in
  let preds = around (fun k (a, b) -> if slot b = k then Some (slot a) else None)
  and succs = around (fun k (a, b) -> if slot a = k then Some (slot b) else None) in
  let dead_step k =
    let last_of acc x = max acc steps.(x) in
    Array.fold_left last_of (Array.fold_left last_of steps.(k) preds.(k)) succs.(k)
  in
  let dies =
    Array.init (Rim.Model.m model) (fun i ->
        Array.of_list (List.filter (fun k -> dead_step k = i) (List.init t Fun.id)))
  in
  {
    t;
    first = Array.fold_left min max_int steps;
    last = Array.fold_left max (-1) steps;
    slot_at;
    preds;
    succs;
    dies;
  }

(* The DP starts at σ's first tracked item (before it every insertion
   lands among untracked items only, with total mass 1) and stops after
   its last: later insertions shift positions uniformly and cannot break
   an order. The last layer's emissions are summed directly, in
   (state, j) order, instead of being stored. *)
let run ~budget ~states model pr =
  let t = pr.t in
  let pi_row = Array.make (pr.last + 1) 0. in
  Dp_table.Layers.run ~name:"Po_solver" ~width:t ~max_states:!max_states
    ~budget ~par:Util.Par.inline ~states ~first:pr.first ~last:pr.last
    ~scratch:(fun () -> (Array.make t 0, Array.make t 0, [| 0. |]))
    ~layer:(fun i data probs ->
      Rim.Model.blit_pi_row model i pi_row;
      let k = pr.slot_at.(i) in
      let dies = pr.dies.(i) in
      let final = i = pr.last in
      fun (buf, sorted, cell) next out s ->
        let off = s * t and q = probs.(s) in
        if k >= 0 then begin
          (* A tracked item lands after every inserted predecessor and at
             or before every inserted successor's position, so the edges
             it closes hold by construction; other edges keep their order
             under the shift. *)
          let lo = ref 0 and hi = ref i in
          let preds = pr.preds.(k) and succs = pr.succs.(k) in
          for y = 0 to Array.length preds - 1 do
            let v = data.(off + preds.(y)) in
            if v > !lo then lo := v
          done;
          for y = 0 to Array.length succs - 1 do
            let v = data.(off + succs.(y)) in
            if v > 0 && v - 1 < !hi then hi := v - 1
          done;
          for j = !lo to !hi do
            let p = q *. pi_row.(j) in
            if p > 0. then begin
              cell.(0) <- p;
              if final then Dp_table.Layers.emit_mass out cell 0
              else begin
                for x = 0 to t - 1 do
                  let v = data.(off + x) in
                  buf.(x) <- (if v > j then v + 1 else v)
                done;
                buf.(k) <- j + 1;
                for y = 0 to Array.length dies - 1 do
                  buf.(dies.(y)) <- 0
                done;
                Dp_table.Fixed.add next buf 0 cell 0
              end
            end
          done
        end
        else begin
          (* An untracked item: group insertion positions by how many
             tracked items precede them; the successor state is the same
             within a group, so a group emits once with its summed mass. *)
          let n_in = ref 0 in
          for x = 0 to t - 1 do
            let v = data.(off + x) in
            if v > 0 then begin
              let y = ref !n_in in
              while !y > 0 && sorted.(!y - 1) > v do
                sorted.(!y) <- sorted.(!y - 1);
                decr y
              done;
              sorted.(!y) <- v;
              incr n_in
            end
          done;
          let n_in = !n_in in
          for c = 0 to n_in do
            (* [sorted] holds position + 1: the first j after that item. *)
            let jlo = if c = 0 then 0 else sorted.(c - 1) in
            let jhi = if c = n_in then i else sorted.(c) - 1 in
            let psum = ref 0. in
            for j = jlo to jhi do
              psum := !psum +. pi_row.(j)
            done;
            if !psum > 0. then begin
              for x = 0 to t - 1 do
                let v = data.(off + x) in
                buf.(x) <- (if v > jlo then v + 1 else v)
              done;
              cell.(0) <- q *. !psum;
              Dp_table.Fixed.add next buf 0 cell 0
            end
          done
        end)
    ~answer:(fun _ acc -> min 1. (Dp_table.Mass.total acc))
    ()

let prob ?(budget = Util.Timer.no_limit) model po =
  let pr = build_problem model po in
  let states = ref 0 in
  let p = if pr.t = 0 then 1. else run ~budget ~states model pr in
  Obs.Counter.incr c_calls;
  Obs.Counter.add c_states !states;
  p

let prob_subranking ?budget model sub =
  prob ?budget model (Prefs.Partial_order.of_chain (Prefs.Ranking.to_list sub))

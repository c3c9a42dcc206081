exception Unsupported of string

let max_states = ref 2_000_000

(* State encoding: the (position, mask) pairs of the tracked items,
   sorted by position (0-based absolute positions in the current partial
   ranking), stored as [t; pos0; mask0; ...; 0 ...] in a
   {!Dp_table.Fixed} table: the pair count [t] leads and zeros pad every
   state to [1 + 2 * relevant], [relevant] the number of items with a
   nonzero mask (a state never holds more). With the count leading,
   padded words are equal iff the pair lists are. *)

(* Static preamble of the signature DP. *)
type problem = {
  m : int;
  topo : int array; (* nodes in topological order *)
  parents : int array array;
  step_mask : int array; (* mask of the item inserted at step i *)
}

(* Greedy embedding over the mask sequence of a state: processing nodes
   in topological order, the pattern embeds iff every node finds an item
   carrying its bit and strictly after all its parents' items
   (non-injective greedy matching; see Prefs.Matcher). Item [k]'s mask
   is word [off + 2k + 1] of [buf]. [f] is caller-provided scratch
   (one slot per node). Loops over the problem's node arrays, so the
   hot path allocates nothing. [f] needs no reset: topological
   order sets every parent's slot before its children read it, and the
   scan stops at the first node that fails. *)
let embeds pr ~f buf off t =
  let topo = pr.topo and parents = pr.parents in
  let ok = ref true and x = ref 0 in
  while !ok && !x < Array.length topo do
    let v = topo.(!x) in
    let ps = parents.(v) in
    let bound = ref (-1) in
    for y = 0 to Array.length ps - 1 do
      let fu = f.(ps.(y)) in
      if fu > !bound then bound := fu
    done;
    let bit = 1 lsl v in
    let k = ref (!bound + 1) in
    while !k < t && buf.(off + (2 * !k) + 1) land bit = 0 do
      incr k
    done;
    if !k < t then begin
      f.(v) <- !k;
      incr x
    end
    else ok := false
  done;
  !ok

let build_problem model lab g =
  let q = Prefs.Pattern.n_nodes g in
  if q > 62 then raise (Unsupported "Pattern_solver: more than 62 nodes");
  let m = Rim.Model.m model in
  let sigma = Rim.Model.sigma model in
  let topo = Array.of_list (Prefs.Pattern.topological_order g) in
  let parents = Array.init q (fun v -> Array.of_list (Prefs.Pattern.preds g v)) in
  let step_mask =
    Array.init m (fun i ->
        let item = Prefs.Ranking.item_at sigma i in
        let mask = ref 0 in
        for v = 0 to q - 1 do
          if Prefs.Labeling.has_all lab item (Prefs.Pattern.node g v) then
            mask := !mask lor (1 lsl v)
        done;
        !mask)
  in
  (* Static check: every node needs at least one matching item. *)
  let witnessable =
    List.init q (fun v -> Array.exists (fun mk -> mk land (1 lsl v) <> 0) step_mask)
  in
  if List.exists not witnessable then None else Some { m; topo; parents; step_mask }

(* Chunk-local scratch: an emission buffer of the table's width, the
   embedding scratch and the emission's probability cell. *)
type scratch = { buf : int array; f : int array; cell : float array }

(* The expansion reads only the current table's arrays and π's row i,
   hoisted once per layer: no allocation and no call outside this module
   except the emission. *)
let run ~budget ~par model pr =
  let q = Array.length pr.parents in
  let relevant =
    Array.fold_left (fun n mx -> if mx <> 0 then n + 1 else n) 0 pr.step_mask
  in
  let width = 1 + (2 * relevant) in
  let pi_row = Array.make pr.m 0. in
  Dp_table.Layers.run ~name:"Pattern_solver" ~width ~max_states:!max_states
    ~budget ~par ~states:(ref 0) ~last:(pr.m - 1)
    ~scratch:(fun () ->
      { buf = Array.make width 0; f = Array.make (max q 1) 0; cell = [| 0. |] })
    ~layer:(fun i data probs ->
      Rim.Model.blit_pi_row model i pi_row;
      let mx = pr.step_mask.(i) in
      (* Item [k] of a state at [off] has its position at [off + 1 + 2k]
         and its mask right after. *)
      fun sc next out s ->
        let off = s * width and qprob = probs.(s) in
        let t = data.(off) in
        let buf = sc.buf and cell = sc.cell in
        if mx = 0 then begin
          (* Irrelevant item: group insertion positions by how many
             tracked items shift. c = number of tracked items strictly
             before j. *)
          for c = 0 to t do
            let jlo = if c = 0 then 0 else data.(off + 1 + (2 * (c - 1))) + 1 in
            let jhi = if c = t then i else data.(off + 1 + (2 * c)) in
            if jlo <= jhi then begin
              let psum = ref 0. in
              for j = jlo to jhi do
                psum := !psum +. pi_row.(j)
              done;
              if !psum > 0. then begin
                Array.blit data off buf 0 width;
                for k = c to t - 1 do
                  buf.(1 + (2 * k)) <- buf.(1 + (2 * k)) + 1
                done;
                cell.(0) <- qprob *. !psum;
                Dp_table.Fixed.add next buf 0 cell 0
              end
            end
          done
        end
        else
          for j = 0 to i do
            let p = qprob *. pi_row.(j) in
            if p > 0. then begin
              (* Insert (j, mx), shifting tracked positions >= j. *)
              let c = ref 0 in
              while !c < t && data.(off + 1 + (2 * !c)) < j do
                incr c
              done;
              let c = !c in
              (* The row's own padding zeroes every word past the new
                 last pair. *)
              Array.blit data off buf 0 width;
              buf.(0) <- t + 1;
              buf.(1 + (2 * c)) <- j;
              buf.(2 + (2 * c)) <- mx;
              for k = c to t - 1 do
                buf.(1 + (2 * (k + 1))) <- data.(off + 1 + (2 * k)) + 1;
                buf.(2 + (2 * (k + 1))) <- data.(off + 2 + (2 * k))
              done;
              cell.(0) <- p;
              if embeds pr ~f:sc.f buf 1 (t + 1) then
                Dp_table.Layers.emit_mass out cell 0
              else Dp_table.Fixed.add next buf 0 cell 0
            end
          done)
    ~answer:(fun _ acc -> min 1. (Dp_table.Mass.total acc))
    ()

let prob_general ?(budget = Util.Timer.no_limit) ?(par = Util.Par.inline)
    model lab g =
  match build_problem model lab g with
  | None -> 0.
  | Some pr -> run ~budget ~par model pr

let prob ?budget ?par model lab g =
  if Prefs.Pattern.is_bipartite g then
    Bipartite.prob ?budget ?par model lab (Prefs.Pattern_union.singleton g)
  else prob_general ?budget ?par model lab g

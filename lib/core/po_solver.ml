let max_states = ref 2_000_000

(* State: int array over the tracked items (fixed order), entry = absolute
   position + 1, or 0 when the item is not inserted yet. *)

let prob ?(budget = Util.Timer.no_limit) model po =
  let tracked = Array.of_list (Prefs.Partial_order.items po) in
  let t = Array.length tracked in
  if t = 0 then 1.
  else begin
    let sigma = Rim.Model.sigma model in
    let slot = Hashtbl.create t in
    Array.iteri (fun k item -> Hashtbl.replace slot item k) tracked;
    Array.iter
      (fun item ->
        if not (Prefs.Ranking.mem sigma item) then
          invalid_arg "Po_solver.prob: partial order mentions an unknown item")
      tracked;
    (* Edges as slot pairs; transitive closure not needed (pairwise checks
       on fully inserted endpoints suffice for final consistency, and
       partial states are pruned as soon as any edge with both endpoints
       inserted is violated). *)
    let edges =
      List.map
        (fun (a, b) -> (Hashtbl.find slot a, Hashtbl.find slot b))
        (Prefs.Partial_order.edges po)
    in
    let consistent st =
      List.for_all
        (fun (a, b) ->
          let pa = st.(a) and pb = st.(b) in
          pa = 0 || pb = 0 || pa < pb)
        edges
    in
    (* The DP can stop once every tracked item has been inserted: later
       insertions shift positions uniformly and cannot break an order. *)
    let last_step =
      Array.fold_left
        (fun acc item -> max acc (Prefs.Ranking.position_of sigma item))
        0
        (Array.map (fun item -> item) tracked)
    in
    let table = ref (Hashtbl.create 64) in
    Hashtbl.add !table (Array.make t 0) 1.;
    for i = 0 to last_step do
      Util.Timer.check budget;
      let item = Prefs.Ranking.item_at sigma i in
      let tracked_slot = Hashtbl.find_opt slot item in
      let next = Hashtbl.create (Hashtbl.length !table * 2) in
      let add st p =
        match Hashtbl.find_opt next st with
        | Some p0 -> Hashtbl.replace next st (p0 +. p)
        | None ->
            if Hashtbl.length next >= !max_states then
              raise
                (Dp_table.State_explosion
                   { table = "Po_solver"; cap = !max_states });
            Hashtbl.add next st p
      in
      Hashtbl.iter
        (fun st q ->
          match tracked_slot with
          | Some k ->
              for j = 0 to i do
                let p = q *. Rim.Model.pi model i j in
                if p > 0. then begin
                  let st' =
                    Array.map (fun v -> if v > 0 && v - 1 >= j then v + 1 else v) st
                  in
                  st'.(k) <- j + 1;
                  if consistent st' then add st' p
                end
              done
          | None ->
              (* Group insertion positions by how many tracked positions
                 shift; the state outcome is identical within a group. *)
              let positions =
                List.sort compare
                  (List.filter (fun v -> v > 0) (Array.to_list st))
              in
              let boundaries = Array.of_list positions in
              let n_inserted = Array.length boundaries in
              for c = 0 to n_inserted do
                let jlo = if c = 0 then 0 else boundaries.(c - 1) in
                (* boundaries store pos+1, i.e. the first j strictly after
                   that item *)
                let jhi = if c = n_inserted then i else boundaries.(c) - 1 in
                if jlo <= jhi then begin
                  let psum = ref 0. in
                  for j = jlo to jhi do
                    psum := !psum +. Rim.Model.pi model i j
                  done;
                  if !psum > 0. then begin
                    let st' =
                      Array.map
                        (fun v -> if v > 0 && v - 1 >= jlo then v + 1 else v)
                        st
                    in
                    add st' (q *. !psum)
                  end
                end
              done)
        !table;
      table := next
    done;
    min 1. (Hashtbl.fold (fun _ q acc -> acc +. q) !table 0.)
  end

let prob_subranking ?budget model sub =
  prob ?budget model (Prefs.Partial_order.of_chain (Prefs.Ranking.to_list sub))

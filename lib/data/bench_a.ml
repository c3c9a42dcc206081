let sample_label rng ~m ~count ~top_heavy =
  let weight i =
    let x = if top_heavy then float_of_int (m - i) else float_of_int (i + 1) in
    x ** 1.5
  in
  Util.Rng.sample_without_replacement rng m ~weight count

let generate ?(m = 15) ?(phi = 0.1) ?(n_unions = 33) ?(items_per_label = 3) ~seed () =
  let rng = Util.Rng.make seed in
  List.init n_unions (fun u ->
      let r = Util.Rng.split rng in
      let center = Prefs.Ranking.of_array (Util.Rng.permutation r m) in
      let mallows = Rim.Mallows.make ~center ~phi in
      (* Items are sampled by *position in sigma*; map back to item ids. *)
      let items_at positions =
        List.map (fun p -> Prefs.Ranking.item_at center p) positions
      in
      (* 8 labels: A1 C1 A2 C2 A3 C3 B D (ids 0..7). *)
      let label_items = Array.make 8 [] in
      for p = 0 to 2 do
        label_items.(2 * p) <-
          items_at (sample_label r ~m ~count:items_per_label ~top_heavy:false);
        label_items.((2 * p) + 1) <-
          items_at (sample_label r ~m ~count:items_per_label ~top_heavy:true)
      done;
      label_items.(6) <- items_at (sample_label r ~m ~count:items_per_label ~top_heavy:false);
      label_items.(7) <- items_at (sample_label r ~m ~count:items_per_label ~top_heavy:true);
      let per_item = Array.make m [] in
      Array.iteri
        (fun l items -> List.iter (fun i -> per_item.(i) <- l :: per_item.(i)) items)
        label_items;
      let labeling = Prefs.Labeling.make per_item in
      let pattern p =
        (* nodes: A_p, C_p, B, D; edges A>C, A>D, B>D *)
        Prefs.Pattern.make
          ~nodes:[ [ 2 * p ]; [ (2 * p) + 1 ]; [ 6 ]; [ 7 ] ]
          ~edges:[ (0, 1); (0, 3); (2, 3) ]
      in
      let union = Prefs.Pattern_union.make [ pattern 0; pattern 1; pattern 2 ] in
      {
        Instance.name = Printf.sprintf "bench-a/%d" u;
        mallows;
        labeling;
        union;
        params = [ ("m", m); ("z", 3); ("items_per_label", items_per_label) ];
      })

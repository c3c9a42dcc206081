(* Experiment harness: one target per figure of the paper's evaluation
   (Figures 4-15; the paper has no numbered tables) plus Bechamel
   microbenchmarks.

   Usage:
     dune exec bench/main.exe                 # quick pass over everything
     dune exec bench/main.exe -- fig9 fig12   # selected experiments
     dune exec bench/main.exe -- all --full   # paper-scale parameters
     dune exec bench/main.exe -- micro        # kernels + design ablations
     dune exec bench/main.exe -- kernels      # flat DP kernel rows only

   EXPERIMENTS.md records the paper-vs-measured comparison produced from
   this harness. *)

let experiments =
  [
    ("fig4", Fig04.run);
    ("fig5", Fig05.run);
    ("fig6", Fig06.run);
    ("fig7", Fig07.run);
    ("fig8", Fig08.run);
    ("fig9", Fig09.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("micro", Micro.run);
    ("kernels", fun ~full:_ () -> Micro.flat_kernels ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args || List.mem "full" args in
  let names =
    List.filter
      (fun a -> a <> "--full" && a <> "full" && a <> "all" && a <> "quick")
      args
  in
  let selected =
    match names with
    | [] -> experiments
    | _ ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
                Printf.eprintf "unknown experiment %s (have: %s)\n" n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  Printf.printf "hardq experiment harness (%s scale)\n"
    (if full then "full" else "quick");
  let t0 = Util.Timer.now () in
  (* A failing experiment does not stop the others, but it fails the
     run: otherwise the asserts inside the experiments check nothing. *)
  let failed =
    List.filter
      (fun (name, f) ->
        match f ~full () with
        | () -> false
        | exception e ->
            Printf.eprintf "!! %s failed: %s\n%!" name (Printexc.to_string e);
            true)
      selected
  in
  Printf.printf "\ntotal harness time: %.1fs\n" (Util.Timer.now () -. t0);
  if failed <> [] then exit 1

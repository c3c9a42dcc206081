(* Shared helpers for the experiment harness. *)

let line = String.make 78 '-'

let header fig title =
  Printf.printf "\n%s\n" line;
  Printf.printf "%s: %s\n" fig title;
  Printf.printf "%s\n" line

let note fmt = Printf.printf ("  note: " ^^ fmt ^^ "\n")
let row fmt = Printf.printf ("  " ^^ fmt ^^ "\n%!")

(* One JSON object per line, for machine-readable benchmark output that a
   plotting script can slurp with `jq -s`. With BENCH_JSON_OUT set the
   same line is also appended to that file, so a harness (the bench
   schema test, a CI collector) can read results without scraping the
   human-oriented stdout around them. *)
let json_line fields =
  let line = Server.Json.to_string (Server.Json.Obj fields) in
  Printf.printf "  %s\n%!" line;
  match Sys.getenv_opt "BENCH_JSON_OUT" with
  | None | Some "" -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc line;
      output_char oc '\n';
      close_out oc

(* Flatten an observability snapshot into [json_line] fields: counters as
   ints, histograms as .count/.sum pairs, all under [prefix]. *)
let obs_fields ?(prefix = "obs.") (snap : Obs.snapshot) =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Obs.Count n -> [ (prefix ^ name, Server.Json.Int n) ]
      | Obs.Hist { count; sum; _ } ->
          [
            (prefix ^ name ^ ".count", Server.Json.Int count);
            (prefix ^ name ^ ".sum", Server.Json.Int sum);
          ])
    snap

(* Time a solver call under a budget; None = timed out or state explosion.
   Any other exception is a bug and propagates. *)
let timed_opt ?(budget = 0.) f =
  let t0 = Util.Timer.now () in
  let result =
    let run () =
      if budget <= 0. then Some (f Util.Timer.no_limit)
      else Util.Timer.with_budget budget f
    in
    match run () with
    | r -> r
    | exception Hardq.Dp_table.State_explosion _ -> None
  in
  (result, Util.Timer.now () -. t0)

let median_of l =
  match l with [] -> nan | _ -> Util.Stats.median (Array.of_list l)

let summary_line name values =
  match values with
  | [] -> row "%-28s (no data)" name
  | _ ->
      let a = Array.of_list values in
      row "%-28s median %10.4fs   min %10.4fs   max %10.4fs   (n=%d)" name
        (Util.Stats.median a) (Util.Stats.minimum a) (Util.Stats.maximum a)
        (Array.length a)

let rel_err ~exact est = Util.Stats.relative_error ~exact est

(* Percentiles of a list of relative errors. *)
let err_summary errs =
  match errs with
  | [] -> "(no data)"
  | _ ->
      let a = Array.of_list errs in
      Printf.sprintf "median %.4g  p25 %.4g  p75 %.4g  max %.4g (n=%d)"
        (Util.Stats.percentile a 50.) (Util.Stats.percentile a 25.)
        (Util.Stats.percentile a 75.) (Util.Stats.maximum a) (Array.length a)

(* The flags and converters shared by [hardq] and [hardq-server]: the
   [--jobs] flag, and the bounded count converter behind [--shards] and
   the server's capacity flags. *)

open Cmdliner

(* A count of [what]: an integer >= [min], anything else is a usage
   error (exit 124) that names the flag. *)
let count_conv ~min what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid %s %S, expected an integer >= %d" what s min))
  in
  Arg.conv (parse, Format.pp_print_int)

let shards_conv = count_conv ~min:1 "shard count"

(* The engine's domain count, as [Engine.Config.jobs]: [None] (flag 0) is
   one domain per available core. *)
let jobs_arg =
  let doc =
    "Domains to evaluate with (0 = one per available core). Results are \
     bit-identical whatever the setting."
  in
  Term.(
    const (function 0 -> None | n -> Some n)
    $ Arg.(
        value
        & opt (count_conv ~min:0 "domain count") 1
        & info [ "jobs"; "j" ] ~docv:"N" ~doc))

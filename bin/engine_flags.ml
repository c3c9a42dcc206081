(* The flags and converters shared by [hardq] and [hardq-server]: the
   [--kernel] and [--jobs] flags, and the bounded count converter behind
   [--shards] and the server's capacity flags. *)

open Cmdliner

let kernel_arg =
  let parse s =
    match Hardq.Kernel.of_string s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  let print ppf t = Format.pp_print_string ppf (Hardq.Kernel.to_string t) in
  let doc =
    "DP kernel of the exact solvers: $(b,flat) (arena-indexed, GC-free \
     inner loops; the default) or $(b,boxed) (the reference layout). \
     Answers are byte-identical either way."
  in
  Arg.(
    value
    & opt (conv (parse, print)) Hardq.Kernel.default
    & info [ "kernel" ] ~docv:"KERNEL" ~doc)

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

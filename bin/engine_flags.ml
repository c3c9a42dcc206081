(* The [--kernel] flag and the [--shards] converter, shared by [hardq]
   and [hardq-server]. *)

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

(* A shard count: an integer >= 1, anything else is a usage error. *)
let shards_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid shard count %S, expected an integer >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

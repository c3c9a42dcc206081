type t = { fd : Unix.file_descr; ic : in_channel; mutable seq : int }

let sockaddr_of = function
  | Protocol.Local path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Protocol.Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      (Unix.PF_INET, Unix.ADDR_INET (inet, port))

let rec connect ?(retries = 0) address =
  let domain, sockaddr = sockaddr_of address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match Unix.connect fd sockaddr with
  | () -> { fd; ic = Unix.in_channel_of_descr fd; seq = 0 }
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when retries > 0 ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Thread.delay 0.05;
      connect ~retries:(retries - 1) address
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

let close t = try close_in t.ic with Sys_error _ -> ()

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let rpc_json t json =
  match
    write_all t.fd (Json.to_string json ^ "\n");
    input_line t.ic
  with
  | exception End_of_file -> Error "connection closed by server"
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | line -> Json.of_string line

let request t (req : Protocol.request) =
  Result.bind (rpc_json t (Protocol.request_to_json req)) Protocol.reply_of_json

let eval t e =
  t.seq <- t.seq + 1;
  match request t { Protocol.id = Some (Json.Int t.seq); op = Protocol.Eval e } with
  | Ok reply -> Ok reply.Protocol.result
  | Error _ as err -> err

let ping t =
  match request t { Protocol.id = None; op = Protocol.Ping } with
  | Ok { Protocol.result = Protocol.Pong; _ } -> true
  | _ -> false

let metrics t =
  match request t { Protocol.id = None; op = Protocol.Metrics } with
  | Ok { Protocol.result = Protocol.Metrics_snapshot snap; _ } -> Ok snap
  | Ok _ -> Error "unexpected reply to metrics request"
  | Error _ as err -> err

(** A small synchronous client for the {!Server} wire protocol — used by
    the tests, the load generator and the [hardq_client] binary.

    One request at a time per connection: {!rpc} writes a line and
    blocks for the next reply line. (The server supports pipelining, but
    replies may then arrive out of order; a synchronous client never has
    to match ids.) Not thread-safe — use one client per thread. *)

type t

val connect : ?retries:int -> Protocol.address -> t
(** Connect, retrying [ECONNREFUSED]/[ENOENT] [retries] times (default
    0) 0.05 s apart — startup
    scripts race the server's bind. Raises [Unix.Unix_error] when out of
    retries. *)

val close : t -> unit

val rpc_json : t -> Json.t -> (Json.t, string) result
(** One raw round trip: send a line, read a line. [Error] on a closed
    connection or unparseable reply. *)

val request : t -> Protocol.request -> (Protocol.reply, string) result
(** Typed round trip. *)

val eval : t -> Protocol.eval -> (Protocol.result_body, string) result
(** [request] with an [Eval] op; unwraps the reply body. *)

val ping : t -> bool
(** [true] iff the server answered the ping. Never raises. *)

val metrics : t -> (Json.t, string) result
(** The server's one-line metrics snapshot. *)

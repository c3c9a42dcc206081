(** Consistent hashing over session ids (the shard-placement function).

    A ring of 64 virtual points per shard, each at the 64-bit
    FNV-1a hash of ["shard:<id>:<replica>"] finished with MurmurHash3's
    fmix64 avalanche (raw FNV-1a barely diffuses a key's last bytes, so
    sequential session ids would pile onto one arc); a key lands on the
    first point clockwise from its own hash. Placement is a pure function of
    the key string and the shard count — stable across runs and across
    processes, never of insertion order — so cache keys and digests
    stay shard-topology-free, and growing the ring from [n] to [n+1]
    shards remaps only about [1/(n+1)] of the keys (each new virtual
    point captures just the arc behind it). *)

type t

val create : int -> t
(** [create n] builds the ring for [n >= 1] shards. Raises
    [Invalid_argument] when [n < 1]. *)

val shards : t -> int

val hash : string -> int64
(** The ring's placement hash (FNV-1a folded, fmix64-finalized),
    exposed for tests. *)

val shard_of : t -> string -> int
(** The shard owning a key: first virtual point at or clockwise-after
    the key's hash (wrapping past the top of the ring). *)

val assignment_digest : t -> string list -> string
(** 16-hex-digit digest folding every [(key, shard_of key)] pair in
    list order — the run-to-run stability witness the tests pin. *)

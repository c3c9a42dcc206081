let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_fold h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

(* MurmurHash3's 64-bit finalizer. Raw FNV-1a barely diffuses changes
   in a key's last few bytes (each byte gets only one multiply), so
   near-identical keys — sequential session ids like voter0001,
   voter0002 — would hash into one tiny arc of the ring and land on one
   or two shards. The avalanche step spreads them uniformly. *)
let fmix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  Int64.logxor h (Int64.shift_right_logical h 33)

let hash s = fmix64 (fnv_fold fnv_offset s)

(* Virtual points per shard. *)
let vnodes = 64

type t = {
  shards : int;
  points : (int64 * int) array; (* sorted by unsigned hash, then shard id *)
}

let create shards =
  if shards < 1 then invalid_arg "Chash.create: shards must be >= 1";
  let points =
    Array.init (shards * vnodes) (fun j ->
        let shard = j / vnodes and replica = j mod vnodes in
        (hash (Printf.sprintf "shard:%d:%d" shard replica), shard))
  in
  Array.sort
    (fun (a, sa) (b, sb) ->
      match Int64.unsigned_compare a b with 0 -> compare sa sb | c -> c)
    points;
  { shards; points }

let shards t = t.shards

let shard_of t key =
  if t.shards = 1 then 0
  else begin
    let h = hash key in
    let n = Array.length t.points in
    (* binary search: first point with hash >= h, wrapping to point 0 *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      let ph, _ = t.points.(mid) in
      if Int64.unsigned_compare ph h < 0 then lo := mid + 1 else hi := mid
    done;
    snd t.points.(if !lo = n then 0 else !lo)
  end

let assignment_digest t keys =
  let h =
    List.fold_left
      (fun h k ->
        Int64.mul
          (Int64.logxor (fnv_fold h k) (Int64.of_int (shard_of t k)))
          fnv_prime)
      fnv_offset keys
  in
  Printf.sprintf "%016Lx" h

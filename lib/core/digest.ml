(* 64-bit FNV-1a over the canonical forms the solvers already use.
   The digest is a fingerprint — collisions are tolerable because every
   store that matters (the engine's sub-answer cache) keys on the full
   canonical structure and uses the digest only for RNG derivation,
   batch grouping and wire-visible ids. *)

type t = int64

let empty = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let byte (h : t) (b : int) : t =
  Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) fnv_prime

let i64 h (x : int64) =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical x (8 * i)))
  done;
  !h

let int h v = i64 h (Int64.of_int v)
let bool h b = int h (if b then 1 else 0)

(* Bit pattern, not value: digests must separate -0. from 0. and keep
   every NaN payload distinct, because the cache contract is bitwise. *)
let float h v = i64 h (Int64.bits_of_float v)

let string h s =
  let h = ref (int h (String.length s)) in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  !h

let ints h l = List.fold_left int (int h (List.length l)) l
let to_int (h : t) = Int64.to_int h
let to_hex (h : t) = Printf.sprintf "%016Lx" h
let equal = Int64.equal
let compare = Int64.compare

(* --- composite helpers over the domain types ---------------------- *)

let solver h (s : Solver.t) =
  match s with
  | Solver.Exact e ->
      let tag =
        match e with
        | `Auto -> 0
        | `Two_label -> 1
        | `Bipartite -> 2
        | `Bipartite_basic -> 3
        | `General -> 4
        | `Brute -> 5
      in
      int (int h 1) tag
  | Solver.Approx a -> (
      let h = int h 2 in
      match a with
      | Solver.Rejection { n } -> int (int h 0) n
      | Solver.Mis_lite { d; n_per; compensate } ->
          bool (int (int (int h 1) d) n_per) compensate
      | Solver.Mis_adaptive { n_per; delta_d; d_max; tol } ->
          float (int (int (int (int h 2) n_per) delta_d) d_max) tol
      | Solver.Mis_full { n_per } -> int (int h 3) n_per)

let model h mal =
  let center = Prefs.Ranking.to_array (Rim.Mallows.center mal) in
  let h = int h (Array.length center) in
  let h = Array.fold_left int h center in
  float h (Rim.Mallows.phi mal)

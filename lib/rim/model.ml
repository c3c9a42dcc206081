type t = {
  sigma : Prefs.Ranking.t;
  pi : float array array;
  pos : int array; (* sigma's inverse: item -> position, -1 when absent *)
}

let inverse sigma =
  let m = Prefs.Ranking.length sigma in
  let size = ref 0 in
  for i = 0 to m - 1 do
    size := max !size (Prefs.Ranking.item_at sigma i + 1)
  done;
  let pos = Array.make !size (-1) in
  for i = 0 to m - 1 do
    pos.(Prefs.Ranking.item_at sigma i) <- i
  done;
  pos

let make ~sigma ~pi =
  let m = Prefs.Ranking.length sigma in
  if Array.length pi <> m then invalid_arg "Rim.Model.make: pi has wrong length";
  Array.iteri
    (fun i row ->
      if Array.length row <> i + 1 then
        invalid_arg "Rim.Model.make: pi row length must be i+1";
      let sum = Array.fold_left ( +. ) 0. row in
      Array.iter
        (fun p -> if p < 0. then invalid_arg "Rim.Model.make: negative probability")
        row;
      if abs_float (sum -. 1.) > 1e-9 then
        invalid_arg "Rim.Model.make: pi row does not sum to 1")
    pi;
  { sigma; pi = Array.map Array.copy pi; pos = inverse sigma }

let sigma t = t.sigma
let positions t = t.pos
let m t = Prefs.Ranking.length t.sigma
let pi t i j = t.pi.(i).(j)
let blit_pi_row t i dst = Array.blit t.pi.(i) 0 dst 0 (i + 1)

let insertion_positions t r =
  let n = m t in
  if Prefs.Ranking.length r <> n then
    invalid_arg "Rim.Model.insertion_positions: wrong length";
  let pos = Array.make n 0 in
  let sig_pos_in_r =
    Array.init n (fun i -> Prefs.Ranking.position_of r (Prefs.Ranking.item_at t.sigma i))
  in
  for i = 0 to n - 1 do
    let j = ref 0 in
    for k = 0 to i - 1 do
      if sig_pos_in_r.(k) < sig_pos_in_r.(i) then incr j
    done;
    pos.(i) <- !j
  done;
  pos

let prob t r =
  let js = insertion_positions t r in
  let p = ref 1. in
  Array.iteri (fun i j -> p := !p *. t.pi.(i).(j)) js;
  !p

let log_prob t r =
  let js = insertion_positions t r in
  let lp = ref 0. in
  Array.iteri
    (fun i j ->
      let p = t.pi.(i).(j) in
      lp := !lp +. (if p > 0. then log p else Util.Logspace.neg_inf))
    js;
  !lp

let sample t rng =
  let n = m t in
  (* Build into an int list-as-array with shifting; n is small enough that
     O(m^2) insertion is fine and allocation-free. *)
  let buf = Array.make n 0 in
  for i = 0 to n - 1 do
    let j = Util.Rng.categorical rng t.pi.(i) in
    Array.blit buf j buf (j + 1) (i - j);
    buf.(j) <- Prefs.Ranking.item_at t.sigma i
  done;
  Prefs.Ranking.of_array buf

let uniform sigma =
  let n = Prefs.Ranking.length sigma in
  let pi = Array.init n (fun i -> Array.make (i + 1) (1. /. float_of_int (i + 1))) in
  { sigma; pi; pos = inverse sigma }

let pp ppf t =
  Format.fprintf ppf "RIM(\u{03C3}=%a, m=%d)" Prefs.Ranking.pp t.sigma (m t)

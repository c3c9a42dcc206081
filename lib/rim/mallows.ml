type t = {
  center : Prefs.Ranking.t;
  phi : float;
  mutable rim : Model.t option; (* memoized *)
}

let make ~center ~phi =
  if phi < 0. || phi > 1. then invalid_arg "Mallows.make: phi must be in [0,1]";
  { center; phi; rim = None }

let center t = t.center
let phi t = t.phi
let m t = Prefs.Ranking.length t.center

let insertion_row phi i =
  (* weights φ^(i-j) for j = 0..i *)
  let row = Array.init (i + 1) (fun j -> phi ** float_of_int (i - j)) in
  let sum = Array.fold_left ( +. ) 0. row in
  Array.map (fun w -> w /. sum) row

let to_rim t =
  match t.rim with
  | Some r -> r
  | None ->
      let n = m t in
      let pi =
        Array.init n (fun i ->
            if t.phi = 0. then
              (* point mass: always insert at the bottom (position i) *)
              Array.init (i + 1) (fun j -> if j = i then 1. else 0.)
            else insertion_row t.phi i)
      in
      let r = Model.make ~sigma:t.center ~pi in
      t.rim <- Some r;
      r

let log_z t =
  let n = m t in
  let acc = ref 0. in
  for i = 2 to n do
    acc := !acc +. Util.Logspace.geometric_series_log t.phi i
  done;
  !acc

let log_prob t r =
  let d = Prefs.Ranking.kendall_tau t.center r in
  if t.phi = 0. then (if d = 0 then 0. else Util.Logspace.neg_inf)
  else (float_of_int d *. log t.phi) -. log_z t

let prob t r = exp (log_prob t r)
let sample t rng = Model.sample (to_rim t) rng

let recenter t center =
  if Prefs.Ranking.length center <> m t then invalid_arg "Mallows.recenter: wrong length";
  { center; phi = t.phi; rim = None }

let pp ppf t =
  Format.fprintf ppf "MAL(%a, %.3g)" Prefs.Ranking.pp t.center t.phi

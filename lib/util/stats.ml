let check_nonempty name a =
  if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty array")

let mean a =
  check_nonempty "mean" a;
  Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else
    let m = mean a in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a in
    ss /. float_of_int (n - 1)

let stddev a = sqrt (variance a)

let sorted a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let percentile a p =
  check_nonempty "percentile" a;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let b = sorted a in
  let n = Array.length b in
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then b.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1. -. w) *. b.(lo)) +. (w *. b.(hi))

let median a = percentile a 50.

(* ln Γ(x) for x > 0: Stirling's series (error below 1e-15 from 20 on),
   reached from smaller arguments by Γ(x) = Γ(x + 1) / x. *)
let rec log_gamma x =
  if x < 20. then log_gamma (x +. 1.) -. log x
  else
    let r = 1. /. (x *. x) in
    ((x -. 0.5) *. log x) -. x
    +. (0.5 *. log (2. *. Float.pi))
    +. (1. /. (12. *. x)
       *. (1. -. (r /. 30. *. (1. -. (r *. 2. /. 7. *. (1. -. (r *. 3. /. 4.)))))))

(* Continued fraction of the regularized incomplete beta function
   (modified Lentz). It converges fast for x < (a + 1) / (a + b + 2);
   [incomplete_beta] only calls it there. The iteration cap only stops a
   NaN argument from looping. *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let guard v = if abs_float v < tiny then tiny else v in
  let c = ref 1. and d = ref (1. /. guard (1. -. ((a +. b) *. x /. (a +. 1.)))) in
  let h = ref !d and m = ref 1 and converged = ref false in
  while (not !converged) && !m <= 100_000 do
    let mf = float_of_int !m in
    let m2 = 2. *. mf in
    let even = mf *. (b -. mf) *. x /. ((a +. m2 -. 1.) *. (a +. m2)) in
    d := 1. /. guard (1. +. (even *. !d));
    c := guard (1. +. (even /. !c));
    h := !h *. !d *. !c;
    let odd = -.(a +. mf) *. (a +. b +. mf) *. x /. ((a +. m2) *. (a +. m2 +. 1.)) in
    d := 1. /. guard (1. +. (odd *. !d));
    c := guard (1. +. (odd /. !c));
    let step = !d *. !c in
    h := !h *. step;
    converged := abs_float (step -. 1.) < 1e-15;
    incr m
  done;
  !h

(* I_x(a, b), the regularized incomplete beta function. *)
let rec incomplete_beta a b x =
  if x <= 0. then 0.
  else if x >= 1. then 1.
  else if x > (a +. 1.) /. (a +. b +. 2.) then 1. -. incomplete_beta b a (1. -. x)
  else
    let log_front =
      (a *. log x) +. (b *. log1p (-.x))
      -. (log_gamma a +. log_gamma b -. log_gamma (a +. b))
    in
    exp log_front *. beta_cf a b x /. a

(* The two-sided level of a z = 5 normal interval: 2 (1 - Φ(5)). *)
let z5_alpha = 5.733031437583878e-7

(* The exact lower bound for k >= 1 successes: the p at which
   Pr(X >= k) = I_p(k, n - k + 1) reaches alpha/2. The tail grows with p
   and is at least 1/2 at p = k/n (the median of Binomial(n, k/n) is k),
   so bisect [0, k/n]; keeping the end where the tail is still below
   alpha/2 rounds the bound outward. *)
let cp_lower ~alpha ~k ~n =
  if k <= 0 then 0.
  else
    let a = float_of_int k and b = float_of_int (n - k + 1) in
    let target = alpha /. 2. in
    let lo = ref 0. and hi = ref (float_of_int k /. float_of_int n) in
    while !hi -. !lo > 1e-13 *. !hi do
      let mid = (!lo +. !hi) /. 2. in
      if incomplete_beta a b mid < target then lo := mid else hi := mid
    done;
    !lo

let clopper_pearson_ci ?(alpha = z5_alpha) ~k ~n () =
  if n <= 0 then (0., 1.)
  else (cp_lower ~alpha ~k ~n, 1. -. cp_lower ~alpha ~k:(n - k) ~n)

let relative_error ~exact est =
  if exact = 0. then if est = 0. then 0. else infinity
  else abs_float (est -. exact) /. abs_float exact

let minimum a =
  check_nonempty "minimum" a;
  Array.fold_left min a.(0) a

let maximum a =
  check_nonempty "maximum" a;
  Array.fold_left max a.(0) a

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
}

let summarize a =
  check_nonempty "summarize" a;
  {
    n = Array.length a;
    mean = mean a;
    stddev = stddev a;
    min = minimum a;
    max = maximum a;
    median = median a;
  }

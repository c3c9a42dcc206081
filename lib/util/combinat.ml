let factorial n =
  if n < 0 || n > 20 then invalid_arg "Combinat.factorial: out of range";
  let rec go acc k = if k <= 1 then acc else go (acc * k) (k - 1) in
  go 1 n

(* Heap's algorithm: generates each permutation by a single swap. *)
let iter_permutations n f =
  let a = Array.init n (fun i -> i) in
  let c = Array.make n 0 in
  f a;
  let i = ref 0 in
  while !i < n do
    if c.(!i) < !i then begin
      let j = if !i land 1 = 0 then 0 else c.(!i) in
      let tmp = a.(j) in
      a.(j) <- a.(!i);
      a.(!i) <- tmp;
      f a;
      c.(!i) <- c.(!i) + 1;
      i := 0
    end
    else begin
      c.(!i) <- 0;
      incr i
    end
  done

(* Lexicographic-order enumeration with random access by rank, so a
   permutation sum can be split into independently enumerable chunks.
   Rank r's factorial digits select, left to right, which of the still
   unused values comes next. *)
let unrank_permutation n rank =
  if n < 0 || n > 20 then invalid_arg "Combinat.unrank_permutation: out of range";
  if rank < 0 || rank >= factorial n then
    invalid_arg "Combinat.unrank_permutation: rank out of range";
  let avail = Array.init n (fun i -> i) in
  let out = Array.make n 0 in
  let r = ref rank in
  for i = 0 to n - 1 do
    let f = factorial (n - 1 - i) in
    let d = !r / f in
    r := !r mod f;
    out.(i) <- avail.(d);
    (* shift the tail left to keep [avail] sorted *)
    for k = d to n - 2 - i do
      avail.(k) <- avail.(k + 1)
    done
  done;
  out

(* In-place lexicographic successor; false at the last permutation. *)
let next_permutation a =
  let n = Array.length a in
  let i = ref (n - 2) in
  while !i >= 0 && a.(!i) >= a.(!i + 1) do
    decr i
  done;
  if !i < 0 then false
  else begin
    let j = ref (n - 1) in
    while a.(!j) <= a.(!i) do
      decr j
    done;
    let tmp = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- tmp;
    let lo = ref (!i + 1) and hi = ref (n - 1) in
    while !lo < !hi do
      let tmp = a.(!lo) in
      a.(!lo) <- a.(!hi);
      a.(!hi) <- tmp;
      incr lo;
      decr hi
    done;
    true
  end

let iter_permutations_range n ~lo ~hi f =
  let total = factorial n in
  let lo = max 0 lo and hi = min hi total in
  if lo < hi then begin
    let a = unrank_permutation n lo in
    f a;
    for _ = lo + 1 to hi - 1 do
      ignore (next_permutation a : bool);
      f a
    done
  end

let iter_subsets l f =
  let rec go acc = function
    | [] -> f (List.rev acc)
    | x :: rest ->
        go acc rest;
        go (x :: acc) rest
  in
  go [] l

let iter_nonempty_subsets l f =
  iter_subsets l (function [] -> () | s -> f s)

let cartesian_product doms =
  let rec go = function
    | [] -> [ [] ]
    | d :: rest ->
        let tails = go rest in
        List.concat_map (fun x -> List.map (fun t -> x :: t) tails) d
  in
  go doms

let choose n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1

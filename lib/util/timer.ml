(* We avoid a Unix dependency: Sys.time gives CPU seconds which is the right
   notion for solver budgets in a single-threaded process and is what the
   paper's timeout experiments effectively measure. *)

let now () = Sys.time ()

(* Wall-clock time. CPU time is the right notion for solver budgets, but it
   aggregates over every running domain, so parallel phases must be measured
   on the wall clock. *)
let wall () = Unix.gettimeofday ()

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

type budget = { deadline : float; start : float }

exception Out_of_time

let budget s =
  let t = now () in
  if s <= 0. then { deadline = infinity; start = t }
  else { deadline = t +. s; start = t }

let no_limit = { deadline = infinity; start = 0. }
let expired b = now () > b.deadline
let elapsed b = now () -. b.start
(* No clock read without a limit: the DP kernels check once per layer. *)
let check b = if b.deadline < infinity && expired b then raise Out_of_time

let with_budget s f =
  let b = budget s in
  match f b with x -> Some x | exception Out_of_time -> None

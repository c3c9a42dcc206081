(* A fixed-size pool of worker domains executing chunked parallel-for
   tasks, with work sharing: a body that is itself running on the pool
   may publish sub-tasks back into the same pool.

   Workers are spawned once and block on a condition variable between
   tasks. Every published task carries its own atomic cursors and is
   pushed on a shared pending stack; idle workers pick the most recently
   published runnable task (LIFO — the deepest fork is the one some
   domain is currently waiting on), claim contiguous index chunks from
   its cursor, and go back to waiting when nothing is runnable. The
   publishing domain always participates: it publishes, then drains its
   own task's cursor, then sleeps only for chunks other domains already
   claimed. That makes nesting deadlock-free by construction —

   - under saturation no worker is waiting, so the publisher simply
     drains every chunk itself (inline fallback; no queue handoff is
     ever required for progress);
   - a sleeping publisher only ever waits for chunks held by live
     domains, and the waits-for relation follows the task nesting tree,
     which is acyclic and bottoms out in bodies that share nothing.

   Scheduling nondeterminism never reaches the results: every index
   writes only its own slot (or its own ordered emission buffer), so
   values are identical to a sequential run no matter which domain
   claims which chunk. A worker that wakes up late finds the old task's
   cursor exhausted and simply moves on; it can never steal indices
   from a newer task. *)

type task = {
  body : int -> unit;
  hi : int;
  chunk : int;
  next : int Atomic.t;
  completed : int Atomic.t;
  publisher : int; (* Domain.self of the publishing domain *)
  mutable failure : exn option;
}

type t = {
  size : int;  (* total domains, caller included *)
  mutable domains : unit Domain.t list;
  m : Mutex.t;
  work_cv : Condition.t;  (* a task was published, or shutdown *)
  done_cv : Condition.t;  (* some task completed its last index *)
  mutable pending : task list;  (* newest first *)
  mutable stop : bool;
}

(* Observability: published vs inlined fan-outs and chunks executed by a
   domain other than the publisher (the "work actually shared" signal). *)
let c_tasks = Obs.counter "pool.tasks"
let c_subtasks = Obs.counter "pool.subtasks"
let c_inlined = Obs.counter "pool.inlined"
let c_chunks_stolen = Obs.counter "pool.chunks_stolen"

let default_size () = max 1 (Domain.recommended_domain_count () - 1)
let self_id () = (Domain.self () :> int)

(* Drain the task: claim chunks until the cursor runs off the end. The
   domain completing the last index signals the waiting publisher. *)
let drain t (task : task) =
  let helper = self_id () <> task.publisher in
  let stolen = ref 0 in
  let continue = ref true in
  while !continue do
    let lo = Atomic.fetch_and_add task.next task.chunk in
    if lo >= task.hi then continue := false
    else begin
      if helper then incr stolen;
      let stop_at = min task.hi (lo + task.chunk) in
      for i = lo to stop_at - 1 do
        try task.body i
        with e ->
          Mutex.lock t.m;
          if task.failure = None then task.failure <- Some e;
          Mutex.unlock t.m
      done;
      let n = stop_at - lo in
      if Atomic.fetch_and_add task.completed n + n >= task.hi then begin
        Mutex.lock t.m;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.m
      end
    end
  done;
  Obs.Counter.add c_chunks_stolen !stolen

let rec find_runnable = function
  | [] -> None
  | task :: rest ->
      if Atomic.get task.next < task.hi then Some task else find_runnable rest

let rec worker t =
  Mutex.lock t.m;
  let rec await () =
    if t.stop then None
    else
      match find_runnable t.pending with
      | Some _ as found -> found
      | None ->
          Condition.wait t.work_cv t.m;
          await ()
  in
  match await () with
  | None -> Mutex.unlock t.m
  | Some task ->
      Mutex.unlock t.m;
      drain t task;
      worker t

let create ?jobs () =
  let size = match jobs with Some j -> max 1 j | None -> default_size () in
  let t =
    {
      size;
      domains = [];
      m = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      pending = [];
      stop = false;
    }
  in
  t.domains <- List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let size t = t.size

(* Publish a task, help drain it, wait for stragglers. Runs correctly
   from any domain, including one currently executing another task's
   body — the work-sharing entry point. *)
let exec t ~n body =
  (* Several chunks per domain so an uneven task still balances. *)
  let chunk = max 1 (n / (4 * t.size)) in
  let task =
    { body; hi = n; chunk; next = Atomic.make 0; completed = Atomic.make 0;
      publisher = self_id (); failure = None }
  in
  Mutex.lock t.m;
  t.pending <- task :: t.pending;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  drain t task;
  Mutex.lock t.m;
  while Atomic.get task.completed < task.hi do
    Condition.wait t.done_cv t.m
  done;
  (* Drop the closure reference. *)
  t.pending <- List.filter (fun x -> x != task) t.pending;
  Mutex.unlock t.m;
  match task.failure with Some e -> raise e | None -> ()

let run_with counter t ~n body =
  if n <= 0 then ()
  else if t.size = 1 || n = 1 || t.stop then begin
    Obs.Counter.incr c_inlined;
    for i = 0 to n - 1 do
      body i
    done
  end
  else begin
    Obs.Counter.incr counter;
    exec t ~n body
  end

let run t ~n body = run_with c_tasks t ~n body
let share t ~n body = run_with c_subtasks t ~n body

let sharer t = Util.Par.make ~width:t.size (fun ~n body -> share t ~n body)

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  List.iter Domain.join t.domains;
  t.domains <- []

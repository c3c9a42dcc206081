(* In-memory span recorder for the traced run.

   Spans are recorded around calls into the program's public functions,
   never inside them: each span has a name, start and end (wall seconds),
   the id of the span that encloses it (-1 for a request's root) and the
   request it belongs to. Spans of one thread nest strictly, so a span's
   self time is its duration minus the durations of its direct children. *)

type span = {
  id : int;
  name : string;
  req : int;
  parent : int;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** closed spans, most recent first *)
  mutable next_id : int;
  mutable stack : int list;  (** open span ids, innermost first *)
}

let create () = { spans = []; next_id = 0; stack = [] }

let with_span tr ~req name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = match tr.stack with p :: _ -> p | [] -> -1 in
  tr.stack <- id :: tr.stack;
  let t0 = Unix.gettimeofday () in
  let close () =
    let t1 = Unix.gettimeofday () in
    tr.stack <- List.tl tr.stack;
    tr.spans <- { id; name; req; parent; t0; t1 } :: tr.spans
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans tr = List.rev tr.spans
let duration s = s.t1 -. s.t0

(* (span, self time) for every span, in start order. *)
let self_times tr =
  let all = spans tr in
  let child_sum = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_sum s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.parent)))
    all;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child_sum s.id)))
    all

(* Structural check: every child lies inside its parent's interval and
   belongs to the same request, and for every request the self times of
   its spans sum to its root span's duration. Returns the problems found. *)
let check tr =
  let all = spans tr in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun s ->
      if s.t1 < s.t0 then fail "span %d (%s) ends before it starts" s.id s.name;
      if s.parent >= 0 then
        match Hashtbl.find_opt by_id s.parent with
        | None -> fail "span %d (%s) has unknown parent %d" s.id s.name s.parent
        | Some p ->
            if s.t0 < p.t0 || s.t1 > p.t1 then
              fail "span %d (%s) escapes its parent %s" s.id s.name p.name;
            if s.req <> p.req then fail "span %d (%s) crosses requests" s.id s.name)
    all;
  let self_by_req = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace self_by_req s.req
        (self +. Option.value ~default:0. (Hashtbl.find_opt self_by_req s.req)))
    (self_times tr);
  List.iter
    (fun s ->
      if s.parent < 0 then
        let sum = Option.value ~default:0. (Hashtbl.find_opt self_by_req s.req) in
        if Float.abs (sum -. duration s) > 1e-9 then
          fail "request %d: self times sum to %.9f s, wall is %.9f s" s.req sum
            (duration s))
    all;
  List.rev !problems

let write tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Server.Json.to_string
           (Server.Json.Obj
              [
                ("id", Int s.id);
                ("name", String s.name);
                ("req", Int s.req);
                ("parent", Int s.parent);
                ("start_s", Float s.t0);
                ("end_s", Float s.t1);
              ]));
      output_char oc '\n')
    (spans tr);
  close_out oc

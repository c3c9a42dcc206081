type t = {
  lab : Prefs.Labeling.t;
  m : int; (* length of sigma *)
  pos : int array;
      (* item -> its position in sigma, -1 when absent; the model's own
         array, shorter than the labeling when sigma lacks its last items *)
  mutable ids : (Prefs.Pattern.node * int) list; (* few per union *)
  mutable n : int;
  mutable match_rows : bool array list; (* reversed: id n-1 first *)
  mutable remaining_rows : int array list;
  mutable cache : (bool array array * int array array) option;
}

let create lab model =
  {
    lab;
    m = Rim.Model.m model;
    pos = Rim.Model.positions model;
    ids = [];
    n = 0;
    match_rows = [];
    remaining_rows = [];
    cache = None;
  }

let rec sorted_uniq = function
  | x :: (y :: _ as rest) -> x < y && sorted_uniq rest
  | _ -> true

(* A row marks the positions of the items carrying every label of
   [node]: one pass over [Labeling.items_with_all] through σ's inverse,
   not a label-list scan per position. *)
let intern t node =
  let node = if sorted_uniq node then node else List.sort_uniq compare node in
  match List.assoc_opt node t.ids with
  | Some id -> id
  | None ->
      let id = t.n in
      t.ids <- (node, id) :: t.ids;
      t.n <- id + 1;
      let m = t.m in
      let row = Array.make m false in
      List.iter
        (fun item ->
          if item < Array.length t.pos then
            let p = t.pos.(item) in
            if p >= 0 then row.(p) <- true)
        (Prefs.Labeling.items_with_all t.lab node);
      let rem = Array.make m 0 in
      let acc = ref 0 in
      for i = m - 1 downto 0 do
        rem.(i) <- !acc;
        if row.(i) then incr acc
      done;
      t.match_rows <- row :: t.match_rows;
      t.remaining_rows <- rem :: t.remaining_rows;
      t.cache <- None;
      id

let tables t =
  match t.cache with
  | Some tb -> tb
  | None ->
      let tb =
        ( Array.of_list (List.rev t.match_rows),
          Array.of_list (List.rev t.remaining_rows) )
      in
      t.cache <- Some tb;
      tb

let freeze t = ignore (tables t)

let matches t c i =
  let m, _ = tables t in
  m.(c).(i)

let match_row t c = (fst (tables t)).(c)
let remaining_row t c = (snd (tables t)).(c)

let total t c =
  let m, r = tables t in
  if Array.length m.(c) = 0 then 0
  else r.(c).(0) + if m.(c).(0) then 1 else 0

let exhausted t c i =
  let _, r = tables t in
  r.(c).(i) = 0

let step ~hit ~left j v =
  let shifted = if v > 0 && v - 1 >= j then v + 1 else v in
  if not hit then shifted
  else if v = 0 then j + 1
  else if left then if shifted < j + 1 then shifted else j + 1
  else if shifted > j + 1 then shifted
  else j + 1

let step_row m ~hit ~left =
  ((if hit then 2 else 0) + if left then 1 else 0) * m * (m + 1)

(* The last table built on this domain: back-to-back calls share [m].
   A table past [step_cache_cap_words] (m > 63) is built per call and
   not kept, so no large table stays resident. *)
let step_cache = Domain.DLS.new_key (fun () -> ref (-1, [||]))
let step_cache_cap_words = 16_384

let step_table m =
  let cache = Domain.DLS.get step_cache in
  match !cache with
  | m', t when m' = m -> t
  | _ ->
      let t = Array.make (4 * m * (m + 1)) 0 in
      List.iter
        (fun (hit, left) ->
          let row = step_row m ~hit ~left in
          for j = 0 to m - 1 do
            for v = 0 to m do
              t.(row + (j * (m + 1)) + v) <- step ~hit ~left j v
            done
          done)
        [ (false, false); (false, true); (true, false); (true, true) ];
      if Array.length t <= step_cache_cap_words then cache := (m, t);
      t

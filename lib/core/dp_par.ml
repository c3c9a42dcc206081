(* Deterministic chunked expansion of one DP layer.

   The insertion-step solvers expand every state of the current layer
   into weighted contributions: additions into the next layer's table
   and (for some solvers) additions into a scalar probability
   accumulator. Floating-point addition is not associative, so a
   parallel expansion must not let scheduling order reach the
   accumulators. The trick: process states in contiguous index chunks,
   have each chunk record its contributions in emission order into a
   private buffer, and merge the buffers sequentially in chunk order.
   The merged contribution stream is then exactly the stream a
   sequential pass over the same state array produces — for any chunk
   size and any parallelism width — so every float lands in its
   accumulator in the same order and the layer (including the insertion
   order, and hence iteration order, of the next table) is bit-identical
   to the sequential solver's.

   Key emissions and probability emissions form two independent streams:
   they feed disjoint accumulators, so only their per-stream order
   matters, and the buffers keep each in emission order. *)

(* Minimal growable vector; the first push provides the fill element. *)
module Vec = struct
  type 'a t = { mutable arr : 'a array; mutable len : int }

  let create () = { arr = [||]; len = 0 }

  let push v x =
    let cap = Array.length v.arr in
    if v.len = cap then begin
      let arr = Array.make (max 64 (2 * cap)) x in
      Array.blit v.arr 0 arr 0 v.len;
      v.arr <- arr
    end;
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  let iter f v =
    for i = 0 to v.len - 1 do
      f v.arr.(i)
    done
end

(* Below this many states a layer is expanded on the calling domain:
   the buffering overhead would dwarf the work. The threshold is a
   constant (never a function of the width), but correctness does not
   depend on that — the merged stream is chunking-invariant. *)
let default_min_par = 192

let run ~par ?(min_par = default_min_par) ~n ~ctx ~expand
    ?(finish = fun _ -> ()) ~add ~add_prob () =
  if Util.Par.width par <= 1 || n < min_par then begin
    let c = ctx () in
    for i = 0 to n - 1 do
      expand c i ~emit:add ~emit_prob:add_prob
    done;
    finish c
  end
  else begin
    let n_chunks = min n (4 * Util.Par.width par) in
    let kvs = Array.init n_chunks (fun _ -> Vec.create ()) in
    let ps = Array.init n_chunks (fun _ -> Vec.create ()) in
    let cxs = Array.make n_chunks None in
    Util.Par.share par ~n:n_chunks (fun c ->
        let lo = c * n / n_chunks and hi = (c + 1) * n / n_chunks in
        let cx = ctx () in
        cxs.(c) <- Some cx;
        let kv = kvs.(c) and pv = ps.(c) in
        let emit k p = Vec.push kv (k, p) in
        let emit_prob p = Vec.push pv p in
        for i = lo to hi - 1 do
          expand cx i ~emit ~emit_prob
        done);
    for c = 0 to n_chunks - 1 do
      Vec.iter (fun (k, p) -> add k p) kvs.(c);
      Vec.iter add_prob ps.(c);
      match cxs.(c) with Some cx -> finish cx | None -> ()
    done
  end

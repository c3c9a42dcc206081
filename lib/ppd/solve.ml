let default_solver = Hardq.Solver.default_exact

(* Canonical key of a (model, pattern union) inference request. *)
let request_key (s : Database.session) union =
  ( Prefs.Ranking.to_array (Rim.Mallows.center s.Database.model),
    Rim.Mallows.phi s.Database.model,
    List.map
      (fun g -> (Prefs.Pattern.nodes g, Prefs.Pattern.edges g))
      (Prefs.Pattern_union.patterns union) )

let solve solver lab rng (s : Database.session) union =
  Hardq.Solver.prob solver s.Database.model lab union rng

let per_session ?(solver = default_solver) ?(group = true) db q rng =
  let compiled = Compile.compile db q in
  let lab = Database.labeling db in
  if group then begin
    let cache = Hashtbl.create 64 in
    List.map
      (fun { Compile.session; union } ->
        match union with
        | None -> (session, 0.)
        | Some u ->
            let key = request_key session u in
            let p =
              match Hashtbl.find_opt cache key with
              | Some p -> p
              | None ->
                  let p = solve solver lab rng session u in
                  Hashtbl.add cache key p;
                  p
            in
            (session, p))
      compiled.Compile.requests
  end
  else
    List.map
      (fun { Compile.session; union } ->
        match union with
        | None -> (session, 0.)
        | Some u -> (session, solve solver lab rng session u))
      compiled.Compile.requests

let boolean_prob ?solver ?group db q rng =
  let probs = per_session ?solver ?group db q rng in
  1. -. List.fold_left (fun acc (_, p) -> acc *. (1. -. p)) 1. probs

let count_sessions ?solver ?group db q rng =
  List.fold_left (fun acc (_, p) -> acc +. p) 0. (per_session ?solver ?group db q rng)

type topk_strategy = [ `Naive | `Edges of int ]

type topk_report = {
  results : (Database.session * float) list;
  n_exact : int;
  bound_time : float;
  exact_time : float;
}

let take k l =
  let rec go n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: go (n - 1) rest
  in
  go k l

let top_k ?(solver = default_solver) ?(strategy = `Edges 1) ~k db q rng =
  let compiled = Compile.compile db q in
  let lab = Database.labeling db in
  match strategy with
  | `Naive ->
      let t0 = Util.Timer.now () in
      let probs =
        List.map
          (fun { Compile.session; union } ->
            match union with
            | None -> (session, 0.)
            | Some u -> (session, solve solver lab rng session u))
          compiled.Compile.requests
      in
      let sorted = List.stable_sort (fun (_, a) (_, b) -> compare b a) probs in
      {
        results = take k sorted;
        n_exact = List.length compiled.Compile.requests;
        bound_time = 0.;
        exact_time = Util.Timer.now () -. t0;
      }
  | `Edges n_edges ->
      let t0 = Util.Timer.now () in
      let bounded =
        List.map
          (fun { Compile.session; union } ->
            match union with
            | None -> (session, None, 0.)
            | Some u ->
                let model = Rim.Mallows.to_rim session.Database.model in
                let ub = Hardq.Upper_bound.upper_bound ~k:n_edges model lab u in
                (session, Some u, ub))
          compiled.Compile.requests
      in
      let t1 = Util.Timer.now () in
      (* Exact evaluation in descending upper-bound order, stopping when k
         exact probabilities dominate every remaining bound by more than
         the bound's rounding slack. *)
      let queue =
        List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) bounded
      in
      let n_exact = ref 0 in
      let rec go acc = function
        | [] -> acc
        | (session, union, ub) :: rest ->
            let kth_best =
              let sorted = List.stable_sort (fun (_, a) (_, b) -> compare b a) acc in
              match List.nth_opt sorted (k - 1) with
              | Some (_, p) -> p
              | None -> neg_infinity
            in
            if ub < kth_best -. Hardq.Upper_bound.prune_slack then acc
              (* remaining bounds only get smaller *)
            else begin
              let p =
                match union with
                | None -> 0.
                | Some u ->
                    incr n_exact;
                    solve solver lab rng session u
              in
              go ((session, p) :: acc) rest
            end
      in
      let evaluated = go [] queue in
      let sorted = List.stable_sort (fun (_, a) (_, b) -> compare b a) evaluated in
      {
        results = take k sorted;
        n_exact = !n_exact;
        bound_time = t1 -. t0;
        exact_time = Util.Timer.now () -. t1;
      }

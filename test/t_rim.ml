(* RIM / Mallows / AMP / mixture / learning. *)

let tc = Alcotest.test_case

let unit_rim_validation () =
  let sigma = Prefs.Ranking.of_list [ 0; 1 ] in
  Alcotest.check_raises "bad row length"
    (Invalid_argument "Rim.Model.make: pi row length must be i+1") (fun () ->
      ignore (Rim.Model.make ~sigma ~pi:[| [| 1. |]; [| 1. |] |]));
  Alcotest.check_raises "row must sum to 1"
    (Invalid_argument "Rim.Model.make: pi row does not sum to 1") (fun () ->
      ignore (Rim.Model.make ~sigma ~pi:[| [| 1. |]; [| 0.3; 0.3 |] |]))

let unit_rim_example_2_1 () =
  (* Example 2.1: Pr(<b,c,a> | <a,b,c>, Pi) = Pi(1,1)*Pi(2,1)*Pi(3,2)
     (1-based) = pi.(0).(0) * pi.(1).(0) * pi.(2).(1) (0-based). *)
  let sigma = Prefs.Ranking.of_list [ 0; 1; 2 ] (* a b c *) in
  let pi = [| [| 1. |]; [| 0.7; 0.3 |]; [| 0.2; 0.5; 0.3 |] |] in
  let model = Rim.Model.make ~sigma ~pi in
  let tau = Prefs.Ranking.of_list [ 1; 2; 0 ] (* <b,c,a> *) in
  Helpers.check_close "example 2.1" (1. *. 0.7 *. 0.5) (Rim.Model.prob model tau)

let prop_rim_probs_sum_to_one =
  Helpers.qtest ~count:40 "RIM probabilities sum to 1 over all rankings"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 2 + Util.Rng.int r 4 in
      let mal = Helpers.random_mallows r m in
      let model = Rim.Mallows.to_rim mal in
      let total = ref 0. in
      Prefs.Ranking.all m (fun t -> total := !total +. Rim.Model.prob model t);
      abs_float (!total -. 1.) < 1e-9)

let prop_mallows_kendall_equals_rim =
  Helpers.qtest ~count:60 "Mallows closed form = RIM insertion probability"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Helpers.rng seed in
      let m = 2 + Util.Rng.int r 4 in
      let mal = Helpers.random_mallows ~phi:(0.05 +. Util.Rng.float r 0.9) r m in
      let model = Rim.Mallows.to_rim mal in
      let tau = Prefs.Ranking.of_array (Util.Rng.permutation r m) in
      abs_float (Rim.Mallows.prob mal tau -. Rim.Model.prob model tau) < 1e-9)

let unit_mallows_normalization () =
  (* Z = prod (1 + phi + ... + phi^{i-1}); check log_z against direct sum. *)
  let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity 5) ~phi:0.3 in
  let z = ref 0. in
  Prefs.Ranking.all 5 (fun t ->
      z := !z +. (0.3 ** float_of_int (Prefs.Ranking.kendall_tau (Prefs.Ranking.identity 5) t)));
  Helpers.check_close ~eps:1e-9 "log Z" (log !z) (Rim.Mallows.log_z mal)

let unit_mallows_uniform_and_point () =
  let m = 4 in
  let sigma = Prefs.Ranking.identity m in
  let unif = Rim.Mallows.make ~center:sigma ~phi:1. in
  Prefs.Ranking.all m (fun t ->
      Helpers.check_close "uniform prob" (1. /. 24.) (Rim.Mallows.prob unif t));
  let point = Rim.Mallows.make ~center:sigma ~phi:0. in
  Helpers.check_close "point mass on center" 1. (Rim.Mallows.prob point sigma);
  Helpers.check_close "zero elsewhere" 0.
    (Rim.Mallows.prob point (Prefs.Ranking.of_list [ 1; 0; 2; 3 ]))

let unit_sampling_frequencies () =
  (* Empirical frequencies of a small Mallows match exact probabilities. *)
  let r = Helpers.rng 42 in
  let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity 3) ~phi:0.4 in
  let model = Rim.Mallows.to_rim mal in
  let counts = Hashtbl.create 6 in
  let n = 60_000 in
  for _ = 1 to n do
    let t = Rim.Model.sample model r in
    let key = Prefs.Ranking.to_array t in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Prefs.Ranking.all 3 (fun t ->
      let expected = Rim.Mallows.prob mal t in
      let got =
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts (Prefs.Ranking.to_array t)))
        /. float_of_int n
      in
      Helpers.check_rel ~tol:0.1 "sample frequency" expected got)

let unit_insertion_positions_roundtrip () =
  let r = Helpers.rng 7 in
  for _ = 1 to 50 do
    let m = 2 + Util.Rng.int r 6 in
    let mal = Helpers.random_mallows r m in
    let model = Rim.Mallows.to_rim mal in
    let tau = Prefs.Ranking.of_array (Util.Rng.permutation r m) in
    let js = Rim.Model.insertion_positions model tau in
    (* Rebuild the ranking by replaying the insertions. *)
    let rebuilt = ref (Prefs.Ranking.of_list []) in
    Array.iteri
      (fun i j ->
        rebuilt := Prefs.Ranking.insert !rebuilt j (Prefs.Ranking.item_at (Rim.Model.sigma model) i))
      js;
    if not (Prefs.Ranking.equal tau !rebuilt) then
      Alcotest.failf "roundtrip failed: %a vs %a" Prefs.Ranking.pp tau Prefs.Ranking.pp
        !rebuilt
  done

let unit_amp_example_2_2 () =
  (* Example 2.2: AMP(<a,b,c>, phi, {c > a}) gives Pr(<b,c,a>) =
     phi/(1+phi) * phi/(phi+phi^2) = phi/(1+phi)^2 ... with phi arbitrary.
     Using phi = 0.5. Items a=0 b=1 c=2. *)
  let phi = 0.5 in
  let mal = Rim.Mallows.make ~center:(Prefs.Ranking.of_list [ 0; 1; 2 ]) ~phi in
  let amp = Rim.Amp.make mal (Prefs.Partial_order.make ~edges:[ (2, 0) ]) in
  let tau = Prefs.Ranking.of_list [ 1; 2; 0 ] in
  let expected = phi /. ((1. +. phi) ** 2.) in
  Helpers.check_close ~eps:1e-12 "example 2.2" expected (Rim.Amp.density amp tau)

let unit_amp_consistency () =
  let r = Helpers.rng 11 in
  for _ = 1 to 30 do
    let m = 4 + Util.Rng.int r 3 in
    let mal = Helpers.random_mallows ~phi:(0.1 +. Util.Rng.float r 0.8) r m in
    let items = Util.Rng.permutation r m in
    let chain = [ items.(0); items.(1); items.(2) ] in
    let po = Prefs.Partial_order.of_chain chain in
    let amp = Rim.Amp.make mal po in
    for _ = 1 to 20 do
      let t = Rim.Amp.sample amp r in
      if not (Prefs.Partial_order.consistent po t) then
        Alcotest.failf "AMP sample violates condition: %a" Prefs.Ranking.pp t
    done
  done

let unit_amp_density_normalizes () =
  (* Sum of AMP densities over consistent rankings is 1; inconsistent
     rankings have density 0. *)
  let r = Helpers.rng 13 in
  for _ = 1 to 20 do
    let m = 4 in
    let mal = Helpers.random_mallows ~phi:(0.1 +. Util.Rng.float r 0.8) r m in
    let items = Util.Rng.permutation r m in
    let po = Prefs.Partial_order.of_chain [ items.(0); items.(1) ] in
    let amp = Rim.Amp.make mal po in
    let total = ref 0. in
    Prefs.Ranking.all m (fun t ->
        let d = Rim.Amp.density amp t in
        if not (Prefs.Partial_order.consistent po t) then
          Helpers.check_close "inconsistent has density 0" 0. d;
        total := !total +. d);
    Helpers.check_close ~eps:1e-9 "densities sum to 1" 1. !total
  done

let unit_amp_matches_empirical () =
  let r = Helpers.rng 17 in
  let mal = Rim.Mallows.make ~center:(Prefs.Ranking.identity 4) ~phi:0.3 in
  let po = Prefs.Partial_order.of_chain [ 3; 0 ] in
  let amp = Rim.Amp.make mal po in
  let n = 40_000 in
  let counts = Hashtbl.create 16 in
  for _ = 1 to n do
    let t = Rim.Amp.sample amp r in
    let key = Prefs.Ranking.to_array t in
    Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  done;
  Prefs.Ranking.all 4 (fun t ->
      let expected = Rim.Amp.density amp t in
      if expected > 0.02 then
        let got =
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts (Prefs.Ranking.to_array t)))
          /. float_of_int n
        in
        Helpers.check_rel ~tol:0.12 "AMP frequency" expected got)

let suites =
  [
    ( "rim.model",
      [
        tc "validation" `Quick unit_rim_validation;
        tc "example 2.1" `Quick unit_rim_example_2_1;
        prop_rim_probs_sum_to_one;
        tc "insertion positions roundtrip" `Quick unit_insertion_positions_roundtrip;
        tc "sampling frequencies" `Slow unit_sampling_frequencies;
      ] );
    ( "rim.mallows",
      [
        prop_mallows_kendall_equals_rim;
        tc "normalization constant" `Quick unit_mallows_normalization;
        tc "uniform and point mass" `Quick unit_mallows_uniform_and_point;
      ] );
    ( "rim.amp",
      [
        tc "example 2.2" `Quick unit_amp_example_2_2;
        tc "samples respect condition" `Quick unit_amp_consistency;
        tc "density normalizes on support" `Quick unit_amp_density_normalizes;
        tc "density matches empirical frequency" `Slow unit_amp_matches_empirical;
      ] );
  ]

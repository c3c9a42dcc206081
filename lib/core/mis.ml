(* Observability: AMP proposal draws across the whole MIS family (every
   estimator funnels through these two entry points). *)
let c_draws = Obs.counter "sampler.mis.draws"
let c_proposals = Obs.counter "sampler.mis.proposals"

let record_obs ~d ~n_per =
  Obs.Counter.add c_draws (d * n_per);
  Obs.Counter.add c_proposals d

let balance_estimate ~target ~proposals ~n_per rng =
  let d = Array.length proposals in
  if d = 0 then invalid_arg "Mis.balance_estimate: no proposals";
  if n_per <= 0 then invalid_arg "Mis.balance_estimate: n_per <= 0";
  record_obs ~d ~n_per;
  let log_d = log (float_of_int d) in
  let total = ref 0. in
  Array.iter
    (fun prop ->
      for _ = 1 to n_per do
        let x = Rim.Amp.sample prop rng in
        let log_p = Rim.Mallows.log_prob target x in
        let log_qs = Array.map (fun q -> Rim.Amp.log_density q x) proposals in
        let log_mix = Util.Logspace.log_sum_exp log_qs -. log_d in
        total := !total +. exp (log_p -. log_mix)
      done)
    proposals;
  (!total /. float_of_int (d * n_per), d * n_per)

let is_estimate ~target ~proposal ~n rng =
  balance_estimate ~target ~proposals:[| proposal |] ~n_per:n rng

let plain_is_weights_estimate ~target ~proposals ~n_per rng =
  let d = Array.length proposals in
  if d = 0 then invalid_arg "Mis.plain_is_weights_estimate: no proposals";
  record_obs ~d ~n_per;
  let total = ref 0. in
  Array.iter
    (fun prop ->
      let acc = ref 0. in
      for _ = 1 to n_per do
        let x = Rim.Amp.sample prop rng in
        acc := !acc +. exp (Rim.Mallows.log_prob target x -. Rim.Amp.log_density prop x)
      done;
      total := !total +. (!acc /. float_of_int n_per))
    proposals;
  (!total /. float_of_int d, d * n_per)

type t = {
  value : float;
  n_samples : int;
  n_proposals : int;
  overhead_time : float;
  sampling_time : float;
}

let value t = t.value

let exact v =
  { value = v; n_samples = 0; n_proposals = 0; overhead_time = 0.; sampling_time = 0. }

let pp ppf t =
  Format.fprintf ppf "%.6g (n=%d, d=%d, overhead=%.3gs, sampling=%.3gs)" t.value
    t.n_samples t.n_proposals t.overhead_time t.sampling_time

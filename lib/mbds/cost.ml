type t = {
  t_overhead : float;
  t_broadcast : float;
  t_scan : float;
  t_io : float;
  t_result : float;
}

let default =
  {
    t_overhead = 0.010;
    t_broadcast = 0.002;
    t_scan = 0.0005;
    t_io = 0.030;
    t_result = 0.001;
  }

let response_time cost ~backend_work ~results =
  let backend_time (scanned, written) =
    (float_of_int scanned *. cost.t_scan) +. (float_of_int written *. cost.t_io)
  in
  let parallel =
    List.fold_left (fun acc work -> Float.max acc (backend_time work)) 0.
      backend_work
  in
  cost.t_overhead +. cost.t_broadcast +. parallel
  +. (float_of_int results *. cost.t_result)

let of_loads cost ~before ~after ~results =
  let backend_work =
    List.map2 (fun (s0, w0, _) (s1, w1, _) -> s1 - s0, w1 - w0) before after
  in
  response_time cost ~backend_work ~results

(* Atomic so concurrent read-only requests on one controller can record
   their timings without a data race; [record] itself stays wait-free
   per field. *)
type t = {
  requests : int Atomic.t;
  total_time : float Atomic.t;
  last_time : float Atomic.t;
  total_measured : float Atomic.t;
  last_measured : float Atomic.t;
}

let create () =
  {
    requests = Atomic.make 0;
    total_time = Atomic.make 0.;
    last_time = Atomic.make 0.;
    total_measured = Atomic.make 0.;
    last_measured = Atomic.make 0.;
  }

let add_float cell x =
  let rec go () =
    let cur = Atomic.get cell in
    if not (Atomic.compare_and_set cell cur (cur +. x)) then go ()
  in
  go ()

let record ?(measured = 0.) t dt =
  Atomic.incr t.requests;
  add_float t.total_time dt;
  Atomic.set t.last_time dt;
  add_float t.total_measured measured;
  Atomic.set t.last_measured measured

let requests t = Atomic.get t.requests

let total_time t = Atomic.get t.total_time

let last_time t = Atomic.get t.last_time

let mean_time t =
  let n = Atomic.get t.requests in
  if n = 0 then 0. else Atomic.get t.total_time /. float_of_int n

let total_measured_time t = Atomic.get t.total_measured

let last_measured_time t = Atomic.get t.last_measured

let mean_measured_time t =
  let n = Atomic.get t.requests in
  if n = 0 then 0. else Atomic.get t.total_measured /. float_of_int n

let reset t =
  Atomic.set t.requests 0;
  Atomic.set t.total_time 0.;
  Atomic.set t.last_time 0.;
  Atomic.set t.total_measured 0.;
  Atomic.set t.last_measured 0.

(** Analytic response-time model for the Multi-Backend Database System.

    The paper's MBDS ran each backend on its own minicomputer with a
    dedicated disk, connected to the controller by a broadcast bus
    (Fig. 1.3). We simulate: a request is broadcast to all backends, each
    backend scans its partition in parallel (so the paper's
    {e nearly reciprocal decrease in response time} with more backends),
    and results return serially over the bus to the controller
    (the constant part that keeps the decrease from being exactly
    reciprocal). Parameters are in seconds and are loosely calibrated to
    the era's hardware (≈30 ms average disk access, ≈1 MB/s bus); only the
    response-time {e shape} matters for reproduction. *)

type t = {
  t_overhead : float;  (** fixed controller work per request *)
  t_broadcast : float;  (** putting the request on the bus *)
  t_scan : float;  (** examining one record at a backend (disk read share) *)
  t_io : float;  (** writing one record at a backend *)
  t_result : float;  (** returning one result record over the bus *)
}

val default : t

(** [response_time cost ~backend_work ~results] — [backend_work] lists, per
    backend, [(records_scanned, records_written)]; backends run in
    parallel (max), result return is serial. *)
val response_time : t -> backend_work:(int * int) list -> results:int -> float

(** [of_loads cost ~before ~after ~results] is {!response_time} of the
    work done between two readings of [Controller.backend_loads]: per
    backend, the difference in records scanned and written, with
    [results] records returned. Taken around one request on a controller
    nothing else is using, it is the paper's modelled response time of
    that request. Raises [Invalid_argument] if the two readings cover
    different numbers of backends. *)
val of_loads :
  t ->
  before:(int * int * int) list ->
  after:(int * int * int) list ->
  results:int ->
  float

type counter = { c_name : string; count : int Atomic.t }

type gauge = { g_name : string; value : float Atomic.t }

type histogram = {
  h_name : string;
  bounds : float array;  (* strictly increasing upper bounds *)
  counts : int array;  (* length bounds + 1; last = overflow *)
  mutable h_sum : float;
  mutable h_n : int;
  mutable h_min : float;
  mutable h_max : float;
  lock : Mutex.t;
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let registry_mutex = Mutex.create ()

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let get_or_create name make match_kind =
  locked registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some existing ->
        (match match_kind existing with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf
               "Obs.Metrics: %S already registered with another kind" name))
      | None ->
        let v, instrument = make () in
        Hashtbl.replace registry name instrument;
        v)

let counter name =
  get_or_create name
    (fun () ->
      let c = { c_name = name; count = Atomic.make 0 } in
      c, I_counter c)
    (function I_counter c -> Some c | _ -> None)

let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.count by)

let counter_value c = Atomic.get c.count

let gauge name =
  get_or_create name
    (fun () ->
      let g = { g_name = name; value = Atomic.make 0. } in
      g, I_gauge g)
    (function I_gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g.value v

let gauge_value g = Atomic.get g.value

let default_latency_buckets =
  [|
    1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4; 5e-4; 1e-3; 2e-3; 5e-3;
    1e-2; 2e-2; 5e-2; 0.1; 0.2; 0.5; 1.; 2.; 5.; 10.;
  |]

let histogram ?(buckets = default_latency_buckets) name =
  if Array.length buckets = 0 then
    invalid_arg "Obs.Metrics.histogram: empty bucket list";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Obs.Metrics.histogram: bounds must be strictly increasing")
    buckets;
  get_or_create name
    (fun () ->
      let h =
        {
          h_name = name;
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.;
          h_n = 0;
          h_min = Float.infinity;
          h_max = Float.neg_infinity;
          lock = Mutex.create ();
        }
      in
      h, I_histogram h)
    (function I_histogram h -> Some h | _ -> None)

let rec bucket_from bounds v i =
  if i >= Array.length bounds then i
  else if v <= bounds.(i) then i
  else bucket_from bounds v (i + 1)

let bucket_index bounds v = bucket_from bounds v 0

(* The body cannot raise ([bucket_index] stays within [counts]), so the
   lock is taken without [Fun.protect] and its closure. *)
let observe h v =
  if not (Float.is_nan v) then begin
    Mutex.lock h.lock;
    let i = bucket_index h.bounds v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_sum <- h.h_sum +. v;
    h.h_n <- h.h_n + 1;
    h.h_min <- Float.min h.h_min v;
    h.h_max <- Float.max h.h_max v;
    Mutex.unlock h.lock
  end

let histogram_count h = locked h.lock (fun () -> h.h_n)

(* callers hold h.lock *)
let percentile_unlocked h p =
  if h.h_n = 0 then 0.
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100. *. float_of_int h.h_n)) in
      Int.max 1 (Int.min h.h_n r)
    in
    let n_bounds = Array.length h.bounds in
    let rec find i cum =
      let cum = cum + h.counts.(i) in
      if cum >= rank || i = n_bounds then i else find (i + 1) cum
    in
    let i = find 0 0 in
    let estimate = if i < n_bounds then h.bounds.(i) else h.h_max in
    Float.min estimate h.h_max
  end

let percentile h p = locked h.lock (fun () -> percentile_unlocked h p)

let mean h =
  locked h.lock (fun () ->
      if h.h_n = 0 then 0. else h.h_sum /. float_of_int h.h_n)

type histogram_stats = {
  n : int;
  sum : float;
  min_v : float;
  max_v : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let histogram_stats h =
  locked h.lock (fun () ->
      if h.h_n = 0 then
        { n = 0; sum = 0.; min_v = 0.; max_v = 0.; p50 = 0.; p90 = 0.; p99 = 0. }
      else
        {
          n = h.h_n;
          sum = h.h_sum;
          min_v = h.h_min;
          max_v = h.h_max;
          p50 = percentile_unlocked h 50.;
          p90 = percentile_unlocked h 90.;
          p99 = percentile_unlocked h 99.;
        })

type sample =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * histogram_stats

(* One consistent pass: the registered set is frozen and every value is
   read while the registry lock is held, so a snapshot taken while other
   domains register instruments can neither miss an instrument that was
   registered before the call nor read a name it then fails to resolve.
   Lock order is registry_mutex → h.lock; no writer path takes them in
   the opposite order (observe takes only h.lock, registration takes
   only registry_mutex). *)
let snapshot () =
  locked registry_mutex (fun () ->
      Hashtbl.fold (fun name i acc -> (name, i) :: acc) registry []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.map (fun (name, i) ->
             match i with
             | I_counter c -> Counter (name, counter_value c)
             | I_gauge g -> Gauge (name, gauge_value g)
             | I_histogram h -> Histogram (name, histogram_stats h)))

type placement =
  | Round_robin
  | Skewed of float

type t = {
  ctrl_name : string;
  placement : placement;
  backends : Abdm.Store.t array;
  (* [locks.(i)] guards [backends.(i)]: every broadcast share and every
     per-key mutation holds it (the ownership contract of Abdm.Store) *)
  locks : Mutex.t array;
  (* runs each broadcast's shares *)
  pool : Pool.t;
  mutable next_key : int;
  (* per-backend load instruments in the process-wide metrics registry;
     two controllers with the same name share them (get-or-create) *)
  obs_scanned : Obs.Metrics.counter array;
  obs_written : Obs.Metrics.counter array;
  obs_records : Obs.Metrics.gauge array;
}

(* one backend has nothing to overlap *)
let caller_only = Pool.create 0

let create ?(name = "mbds") ?(placement = Round_robin) ?pool n =
  if n < 1 then invalid_arg "Controller.create: need at least one backend";
  begin
    match placement with
    (* [not (f >= 0. && f <= 1.)] also rejects NaN, which the previous
       two-sided comparison let through *)
    | Skewed f when not (f >= 0. && f <= 1.) ->
      invalid_arg "Controller.create: skew fraction outside [0, 1]"
    | Skewed _ | Round_robin -> ()
  end;
  (* with one backend any skew is degenerate — every key lands on backend
     0 either way — so normalise to Round_robin *)
  let placement = if n = 1 then Round_robin else placement in
  let pool =
    match pool with
    | Some pool -> pool
    | None -> if n > 1 then Pool.shared () else caller_only
  in
  let backend i = Abdm.Store.create ~name:(Printf.sprintf "%s-be%d" name i) () in
  let instrument make suffix =
    Array.init n (fun i -> make (Printf.sprintf "mbds.%s.be%d.%s" name i suffix))
  in
  {
    ctrl_name = name;
    placement;
    backends = Array.init n backend;
    locks = Array.init n (fun _ -> Mutex.create ());
    pool;
    next_key = 1;
    obs_scanned = instrument Obs.Metrics.counter "scanned";
    obs_written = instrument Obs.Metrics.counter "written";
    obs_records = instrument Obs.Metrics.gauge "records";
  }

let num_backends t = Array.length t.backends

let name t = t.ctrl_name

let placement t = t.placement

(* deterministic in the key, so get/replace can re-derive the backend *)
let backend_index_of_key t key =
  let n = Array.length t.backends in
  match t.placement with
  | Round_robin -> key mod n
  | Skewed fraction ->
    (* a cheap multiplicative hash decides the skewed share *)
    let h = key * 2654435761 land 0x3FFFFFFF in
    if float_of_int (h mod 1000) < fraction *. 1000. then 0 else key mod n

(* Shares run on the calling domain vs on a pool worker, across every
   controller: how much broadcast work the workers actually took. *)
let c_shares_inline = Obs.Metrics.counter "mbds.shares_inline"

let c_shares_remote = Obs.Metrics.counter "mbds.shares_remote"

let with_backend t i f = Mutex.protect t.locks.(i) (fun () -> f t.backends.(i))

(* Run [f] against every backend, returning per-backend results, and add
   the (scanned, written) work each performed to that backend's counters.
   Each backend's share holds that backend's lock and reports the scans it
   made itself, so concurrent broadcasts on one controller neither race on
   a store nor miscount each other's work.

   [Pool.run] hands the shares to the caller and to idle workers, which
   claim them from one counter: tiny shares mostly run here without a
   hand-off, while a long scan still overlaps with a worker. Results are
   merged in backend-index order whoever ran them; a failing share is
   re-raised only after every share has finished.

   Tracing: the broadcast opens one span; each backend's share is a child
   span keyed by backend index. Shares run here nest directly; shares run
   by a worker complete as roots there and are adopted once every share is
   done, so any pool emits the same sibling order. *)
let broadcast t ~op ~writes_of f =
  let n = Array.length t.backends in
  Obs.Span.with_span "mbds.broadcast"
    ~attrs:(fun () -> [ "op", op; "backends", string_of_int n ])
    (fun () ->
      (* read only by a worker share's queue-wait attribute *)
      let t0 = if Obs.Span.enabled () then Obs.Clock.now_s () else 0. in
      let caller = Domain.self () in
      let outcomes = Array.make n None in
      let share i =
        let remote = Domain.self () <> caller in
        Obs.Metrics.incr (if remote then c_shares_remote else c_shares_inline);
        Obs.Span.with_span "mbds.backend" ~index:i
          ~attrs:(fun () ->
            let base = [ "backend", string_of_int i ] in
            if remote then
              base
              @ [ "queue_wait_us",
                  Printf.sprintf "%.1f" (Obs.Clock.since t0 *. 1e6) ]
            else base)
          (fun () ->
            with_backend t i (fun backend ->
                let scans0 = Abdm.Store.scan_count backend in
                let r = f backend in
                outcomes.(i) <- Some (r, Abdm.Store.scan_count backend - scans0)))
      in
      Fun.protect
        ~finally:(fun () ->
          if Pool.size t.pool > 0 then Obs.Span.adopt_remote ())
        (fun () -> Pool.run t.pool n share);
      List.init n (fun i ->
          let result, scanned = Option.get outcomes.(i) in
          let written = writes_of result in
          if scanned > 0 then Obs.Metrics.incr ~by:scanned t.obs_scanned.(i);
          if written > 0 then Obs.Metrics.incr ~by:written t.obs_written.(i);
          Obs.Metrics.set_gauge t.obs_records.(i)
            (float_of_int (Abdm.Store.size t.backends.(i)));
          result))

(* The per-row writes take the backend lock directly rather than through
   [with_backend], so they build no closure per row; a store call that
   raises still releases it. *)
let write_next t record key idx =
  let lock = t.locks.(idx) in
  Mutex.lock lock;
  begin
    match Abdm.Store.insert_keyed t.backends.(idx) key record with
    | () -> Mutex.unlock lock
    | exception e ->
      Mutex.unlock lock;
      raise e
  end;
  Obs.Metrics.incr t.obs_written.(idx);
  Obs.Metrics.set_gauge t.obs_records.(idx)
    (float_of_int (Abdm.Store.size t.backends.(idx)))

(* Store [record] under the next global key, on the caller, under its
   backend's lock. *)
let insert t record =
  let key = t.next_key in
  t.next_key <- key + 1;
  let idx = backend_index_of_key t key in
  if Obs.Span.enabled () then
    Obs.Span.with_span "mbds.insert"
      ~attrs:(fun () ->
        [ "key", string_of_int key; "backend", string_of_int idx ])
      (fun () -> write_next t record key idx)
  else write_next t record key idx;
  key

let rec any_match backend = function
  | [] -> false
  | probe :: probes ->
    Abdm.Store.exists backend probe || any_match backend probes

(* whether backend [i] holds a match of [probes]; its scans go to its
   scanned counter *)
let clash t probes i =
  let backend = t.backends.(i) and lock = t.locks.(i) in
  Mutex.lock lock;
  let scans0 = Abdm.Store.scan_count backend in
  let hit =
    match any_match backend probes with
    | hit -> hit
    | exception e ->
      Mutex.unlock lock;
      raise e
  in
  let scanned = Abdm.Store.scan_count backend - scans0 in
  Mutex.unlock lock;
  if scanned > 0 then Obs.Metrics.incr ~by:scanned t.obs_scanned.(i);
  hit

let rec any_clash t probes i =
  i < Array.length t.backends
  && (clash t probes i || any_clash t probes (i + 1))

(* Each backend in turn, on the caller and under that backend's lock: a
   handful of index point probes is far cheaper than waking a worker.
   Stops at the first backend holding a match; with no probes there is
   nothing to check. *)
let insert_unique t record probes =
  if probes <> [] && any_clash t probes 0 then None
  else Some (insert t record)

(* each backend's key-ordered run, merged by key as [to_seq] merges *)
let select t query =
  broadcast t ~op:"select"
    ~writes_of:(fun _ -> 0)
    (fun backend -> Abdm.Store.select backend query)
  |> List.fold_left (List.merge (fun (a, _) (b, _) -> Int.compare a b)) []

(* Reads directory snapshots only; takes no lock (same argument as [get]
   below). Each backend partition holds different rows, so its
   cardinalities — and possibly its chosen access path — differ. *)
let explain t query =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i backend ->
            Printf.sprintf "backend %d (%s):\n%s" i (Abdm.Store.name backend)
              (Abdm.Plan.to_string (Abdm.Store.explain backend query)))
          t.backends))

let delete t query =
  broadcast t ~op:"delete" ~writes_of:(fun n -> n) (fun backend ->
      Abdm.Store.delete backend query)
  |> List.fold_left ( + ) 0

let update t query modifiers =
  broadcast t ~op:"update" ~writes_of:(fun n -> n) (fun backend ->
      Abdm.Store.update backend query modifiers)
  |> List.fold_left ( + ) 0

(* Lock-free read: mutations of a backend happen under its lock, and the
   caller orders them before this read (the server's write barrier, or
   program order on one domain). *)
let get t key =
  let idx = backend_index_of_key t key in
  Obs.Span.with_span "mbds.get"
    ~attrs:(fun () ->
      [ "key", string_of_int key; "backend", string_of_int idx ])
    (fun () -> Abdm.Store.get t.backends.(idx) key)

let replace t key record =
  with_backend t (backend_index_of_key t key) (fun b ->
      Abdm.Store.replace b key record)

(* Restore path (snapshot / WAL replay): store a record under its saved
   global key. Placement is a pure function of the key, so a restored
   controller with the same placement policy routes every record to the
   same backend it lived on. *)
let insert_keyed t key record =
  let idx = backend_index_of_key t key in
  let backend = t.backends.(idx) in
  with_backend t idx (fun b -> Abdm.Store.insert_keyed b key record);
  if key >= t.next_key then t.next_key <- key + 1;
  Obs.Metrics.incr t.obs_written.(idx);
  Obs.Metrics.set_gauge t.obs_records.(idx)
    (float_of_int (Abdm.Store.size backend))

(* Lock-free like [get]: each backend's records as of this call, merged
   by global key. *)
let to_seq t =
  let by_key (k1, _) (k2, _) = Int.compare k1 k2 in
  Array.fold_left
    (fun merged backend -> Seq.sorted_merge by_key merged (Abdm.Store.to_seq backend))
    Seq.empty t.backends

let next_key t = t.next_key

let count t file =
  Array.fold_left (fun acc b -> acc + Abdm.Store.count b file) 0 t.backends

let size t = Array.fold_left (fun acc b -> acc + Abdm.Store.size b) 0 t.backends

let backend_sizes t = Array.to_list (Array.map Abdm.Store.size t.backends)

let backend_loads t =
  Array.to_list
    (Array.mapi
       (fun i backend ->
         ( Obs.Metrics.counter_value t.obs_scanned.(i),
           Obs.Metrics.counter_value t.obs_written.(i),
           Abdm.Store.size backend ))
       t.backends)

let run t (request : Abdl.Ast.request) =
  match request with
  | Abdl.Ast.Insert record -> Abdl.Exec.Inserted (insert t record)
  | Abdl.Ast.Delete query -> Abdl.Exec.Deleted (delete t query)
  | Abdl.Ast.Update (query, modifiers) ->
    Abdl.Exec.Updated (update t query modifiers)
  | Abdl.Ast.Retrieve retrieve ->
    (* each backend shapes its own partition (sorts, or folds its group
       states); the controller only merges the shares *)
    let shares =
      broadcast t ~op:"retrieve"
        ~writes_of:(fun _ -> 0)
        (fun backend ->
          Abdl.Exec.share retrieve (Abdm.Store.select backend retrieve.query))
    in
    Abdl.Exec.Rows (Abdl.Exec.rows retrieve shares)
  | Abdl.Ast.Retrieve_common rc ->
    (* both sides are parallel backend selections; the controller joins *)
    let left = select t rc.rc_left in
    let right = select t rc.rc_right in
    Abdl.Exec.Rows (Abdl.Exec.join_rows rc ~left ~right)

(* Transaction control mutates every backend's journal, so — like any
   other mutation — it holds each backend's lock (the store-ownership
   contract of abdm/store.mli). *)
let each_backend t f =
  Array.iteri (fun i _ -> with_backend t i f) t.backends

let begin_transaction t = each_backend t Abdm.Store.begin_transaction

let commit t = each_backend t Abdm.Store.commit

let rollback t = each_backend t Abdm.Store.rollback

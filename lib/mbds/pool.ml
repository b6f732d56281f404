(* One [run] call: its shares are claimed from [next] by the caller and
   by every worker that picks the job up; [unfinished] (under [mx])
   tells the caller when the last one is done. *)
type job = {
  share : int -> unit;
  n : int;
  next : int Atomic.t;
  posted_s : float;
  mx : Mutex.t;
  finished : Condition.t;
  mutable unfinished : int;
  (* the lowest-indexed share that raised *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

type t = {
  workers : int;
  (* empty until the first [run] that has a share for a helper, so a
     process that never broadcasts runs on one domain: OCaml 5 stops
     every domain for each minor collection, an idle worker included *)
  mutable domains : unit Domain.t array;
  mx : Mutex.t;
  wake : Condition.t;
  (* one entry per worker invited to help a job; a worker that finds
     every share of its job claimed just drops the entry *)
  jobs : job Queue.t;
  mutable live : bool;
}

(* Queue wait (run posted -> a worker claims a share) vs execute (the
   share itself), recorded for shares run on workers only, so the CLI's
   .metrics and perfbench's --trace 1 can tell hand-off cost from
   backend work. *)
let h_queue_wait = Obs.Metrics.histogram "pool.queue_wait_s"

let h_execute = Obs.Metrics.histogram "pool.execute_s"

(* Worker domains spawned, across every pool of the process. *)
let c_workers_started = Obs.Metrics.counter "pool.workers_started"

let finish (job : job) i error =
  Mutex.lock job.mx;
  (match error, job.failed with
  | Some (e, bt), None -> job.failed <- Some (i, e, bt)
  | Some (e, bt), Some (j, _, _) when i < j -> job.failed <- Some (i, e, bt)
  | _ -> ());
  job.unfinished <- job.unfinished - 1;
  if job.unfinished = 0 then Condition.signal job.finished;
  Mutex.unlock job.mx

let run_share ~remote (job : job) i =
  if remote then Obs.Metrics.observe h_queue_wait (Obs.Clock.since job.posted_s);
  let exec0 = Obs.Clock.now_s () in
  let error =
    match job.share i with
    | () -> None
    | exception e -> Some (e, Printexc.get_raw_backtrace ())
  in
  if remote then Obs.Metrics.observe h_execute (Obs.Clock.since exec0);
  finish job i error

(* Claim and run shares until none is left. *)
let rec help ~remote (job : job) =
  let i = Atomic.fetch_and_add job.next 1 in
  if i < job.n then begin
    run_share ~remote job i;
    help ~remote job
  end

let worker_loop t =
  let rec next_job () =
    match Queue.take_opt t.jobs with
    | Some job -> Some job
    | None when not t.live -> None
    | None ->
      Condition.wait t.wake t.mx;
      next_job ()
  in
  let rec loop () =
    Mutex.lock t.mx;
    let job = next_job () in
    Mutex.unlock t.mx;
    match job with
    | Some job ->
      help ~remote:true job;
      loop ()
    | None -> ()
  in
  loop ()

(* A worker runs only shares, each allocating about what the caller's
   own share does: with the caller's nursery size it would touch all of
   it, and half the size halves the pages it keeps resident (E40). *)
let worker gc t () =
  Gc.set { gc with Gc.minor_heap_size = gc.Gc.minor_heap_size / 2 };
  worker_loop t

let create n =
  if n < 0 then invalid_arg "Pool.create: negative worker count";
  {
    workers = n;
    domains = [||];
    mx = Mutex.create ();
    wake = Condition.create ();
    jobs = Queue.create ();
    live = true;
  }

let size t = t.workers

let run t n share =
  let job =
    {
      share;
      n;
      (* share 0 is the caller's, claimed before any worker wakes: a
         worker woken onto the caller's core cannot take every share
         while the caller waits *)
      next = Atomic.make 1;
      posted_s = Obs.Clock.now_s ();
      mx = Mutex.create ();
      finished = Condition.create ();
      unfinished = n;
      failed = None;
    }
  in
  let helpers = min t.workers (n - 1) in
  (* [live] is read under the mutex that [shutdown] writes it under, so
     a [run] racing [shutdown] either spawns before the join or raises *)
  Mutex.protect t.mx (fun () ->
      if not t.live then invalid_arg "Pool.run: pool is shut down";
      if helpers > 0 then begin
        if Array.length t.domains = 0 then begin
          t.domains <-
            Array.init t.workers (fun _ -> Domain.spawn (worker (Gc.get ()) t));
          Obs.Metrics.incr ~by:t.workers c_workers_started
        end;
        for _ = 1 to helpers do
          Queue.push job t.jobs;
          Condition.signal t.wake
        done
      end);
  if n > 0 then run_share ~remote:false job 0;
  help ~remote:false job;
  (* every share is claimed; wait only for those a worker started *)
  Mutex.lock job.mx;
  while job.unfinished > 0 do
    Condition.wait job.finished job.mx
  done;
  Mutex.unlock job.mx;
  match job.failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let shutdown t =
  Mutex.lock t.mx;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.wake;
  let domains = t.domains in
  Mutex.unlock t.mx;
  if was_live then Array.iter Domain.join domains

let shared_pool = ref None

let shared () =
  match !shared_pool with
  | Some pool -> pool
  | None ->
    (* the broadcasting domain runs shares too *)
    let pool = create (min 8 (Domain.recommended_domain_count () - 1)) in
    shared_pool := Some pool;
    at_exit (fun () -> shutdown pool);
    pool

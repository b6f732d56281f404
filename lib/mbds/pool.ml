type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

(* [claimed] is set by whoever starts the task: the worker that dequeues
   it or a caller in [run_or_await]. Exactly one of them wins the CAS and
   runs [task]; the other skips it (worker) or waits for it (caller). *)
type 'a future = {
  mutable state : 'a state;
  fut_mutex : Mutex.t;
  fut_cond : Condition.t;
  task : unit -> 'a;
  claimed : bool Atomic.t;
}

(* One mailbox per worker: tasks for a given owner index execute on that
   worker only, in FIFO order, unless a caller claims them first. *)
type worker = {
  tasks : (unit -> unit) Queue.t;
  w_mutex : Mutex.t;
  w_cond : Condition.t;
  mutable stopping : bool;
}

type t = {
  workers : worker array;
  domains : unit Domain.t array;
  mutable live : bool;
}

let worker_loop w =
  let rec step () =
    Mutex.lock w.w_mutex;
    let rec dequeue () =
      match Queue.take_opt w.tasks with
      | Some task -> Some task
      | None ->
        if w.stopping then None
        else begin
          Condition.wait w.w_cond w.w_mutex;
          dequeue ()
        end
    in
    let task = dequeue () in
    Mutex.unlock w.w_mutex;
    match task with
    | Some run ->
      run ();
      step ()
    | None -> ()
  in
  step ()

let create n =
  if n < 1 then invalid_arg "Pool.create: need at least one worker";
  let workers =
    Array.init n (fun _ ->
        {
          tasks = Queue.create ();
          w_mutex = Mutex.create ();
          w_cond = Condition.create ();
          stopping = false;
        })
  in
  let domains =
    Array.map (fun w -> Domain.spawn (fun () -> worker_loop w)) workers
  in
  { workers; domains; live = true }

let size t = Array.length t.workers

let owner t i = ((i mod size t) + size t) mod size t

(* Queue-wait (enqueue -> dequeue) vs execute (the task body itself), so
   the CLI's .metrics can tell dispatch overhead from backend work. *)
let h_queue_wait = Obs.Metrics.histogram "pool.queue_wait_s"

let h_execute = Obs.Metrics.histogram "pool.execute_s"

let claim fut = Atomic.compare_and_set fut.claimed false true

let complete fut =
  let outcome =
    match fut.task () with
    | v -> Done v
    | exception e -> Failed (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock fut.fut_mutex;
  fut.state <- outcome;
  Condition.broadcast fut.fut_cond;
  Mutex.unlock fut.fut_mutex

let submit t i f =
  if not t.live then invalid_arg "Pool.submit: pool is shut down";
  let w = t.workers.(owner t i) in
  let fut =
    {
      state = Pending;
      fut_mutex = Mutex.create ();
      fut_cond = Condition.create ();
      task = f;
      claimed = Atomic.make false;
    }
  in
  let enqueued_s = Obs.Clock.now_s () in
  let run () =
    if claim fut then begin
      Obs.Metrics.observe h_queue_wait (Obs.Clock.since enqueued_s);
      let exec0 = Obs.Clock.now_s () in
      complete fut;
      Obs.Metrics.observe h_execute (Obs.Clock.since exec0)
    end
  in
  Mutex.lock w.w_mutex;
  Queue.push run w.tasks;
  Condition.signal w.w_cond;
  Mutex.unlock w.w_mutex;
  fut

let await fut =
  Mutex.lock fut.fut_mutex;
  let rec wait () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fut_cond fut.fut_mutex;
      wait ()
    | Done v ->
      Mutex.unlock fut.fut_mutex;
      v
    | Failed (e, bt) ->
      Mutex.unlock fut.fut_mutex;
      Printexc.raise_with_backtrace e bt
  in
  wait ()

let run_or_await fut =
  if claim fut then complete fut;
  await fut

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter
      (fun w ->
        Mutex.lock w.w_mutex;
        w.stopping <- true;
        Condition.broadcast w.w_cond;
        Mutex.unlock w.w_mutex)
      t.workers;
    Array.iter Domain.join t.domains
  end

let shared_pool = ref None

let shared () =
  match !shared_pool with
  | Some pool -> pool
  | None ->
    (* the calling domain runs broadcast shares too ([run_or_await]) *)
    let n = max 1 (min 8 (Domain.recommended_domain_count () - 1)) in
    let pool = create n in
    shared_pool := Some pool;
    at_exit (fun () -> shutdown pool);
    pool

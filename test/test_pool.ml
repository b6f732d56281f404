(* Tests for the MBDS domain pool: result delivery, owner affinity and
   FIFO ordering, exception propagation, shutdown semantics, and the
   caller-claim protocol of [run_or_await]. *)

let test_submit_await () =
  let p = Mbds.Pool.create 2 in
  let futs = List.init 10 (fun i -> Mbds.Pool.submit p i (fun () -> i * i)) in
  List.iteri
    (fun i fut ->
      Alcotest.(check int) "task result" (i * i) (Mbds.Pool.await fut))
    futs;
  Mbds.Pool.shutdown p

let test_owner_affinity_fifo () =
  (* all tasks for one owner index run in submission order, even across a
     larger index space than the pool size *)
  let p = Mbds.Pool.create 2 in
  Alcotest.(check int) "owner wraps" 0 (Mbds.Pool.owner p 4);
  Alcotest.(check int) "owner wraps odd" 1 (Mbds.Pool.owner p 7);
  let trace = ref [] in
  let futs =
    List.init 50 (fun i ->
        (* owner 0 throughout: same mailbox, so the ref is single-writer *)
        Mbds.Pool.submit p 0 (fun () -> trace := i :: !trace))
  in
  List.iter Mbds.Pool.await futs;
  Alcotest.(check (list int))
    "FIFO execution order" (List.init 50 Fun.id) (List.rev !trace);
  Mbds.Pool.shutdown p

let test_exception_propagates () =
  let p = Mbds.Pool.create 1 in
  let fut = Mbds.Pool.submit p 0 (fun () -> raise Not_found) in
  Alcotest.(check bool) "exception re-raised" true
    (match Mbds.Pool.await fut with
     | exception Not_found -> true
     | _ -> false);
  (* the worker survives a failing task *)
  Alcotest.(check int) "worker still serves" 7
    (Mbds.Pool.await (Mbds.Pool.submit p 0 (fun () -> 7)));
  Mbds.Pool.shutdown p

let test_shutdown () =
  let p = Mbds.Pool.create 2 in
  Alcotest.(check int) "size" 2 (Mbds.Pool.size p);
  Mbds.Pool.shutdown p;
  (* idempotent *)
  Mbds.Pool.shutdown p;
  Alcotest.(check bool) "submit after shutdown rejected" true
    (match Mbds.Pool.submit p 0 (fun () -> ()) with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_shared_pool () =
  let p = Mbds.Pool.shared () in
  Alcotest.(check bool) "shared pool is a singleton" true
    (p == Mbds.Pool.shared ());
  Alcotest.(check bool) "shared pool sized to the machine" true
    (Mbds.Pool.size p >= 1 && Mbds.Pool.size p <= 8);
  Alcotest.(check int) "shared pool serves work" 42
    (Mbds.Pool.await (Mbds.Pool.submit p 3 (fun () -> 42)))

(* Occupies the single worker of [p] until [release] is called; returns
   once the blocker is running, so later submissions stay queued. *)
let block_worker p =
  let started = Atomic.make false and gate = Atomic.make false in
  let fut =
    Mbds.Pool.submit p 0 (fun () ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done)
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  fun () ->
    Atomic.set gate true;
    Mbds.Pool.await fut

let test_claim_race_runs_once () =
  (* caller and worker race for every task: each must run exactly once *)
  let p = Mbds.Pool.create 1 in
  let n = 2000 in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  for i = 0 to n - 1 do
    let fut =
      Mbds.Pool.submit p 0 (fun () ->
          Atomic.incr runs.(i);
          i)
    in
    Alcotest.(check int) "claimed result" i (Mbds.Pool.run_or_await fut)
  done;
  (* shutdown drains the mailbox: a worker that re-ran a claimed task
     would show up here *)
  Mbds.Pool.shutdown p;
  Array.iteri
    (fun i r -> Alcotest.(check int) (Printf.sprintf "task %d runs" i) 1 (Atomic.get r))
    runs

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let raise_from_task () : int = failwith "claimed task failed"

let test_claimed_exception_backtrace () =
  let p = Mbds.Pool.create 1 in
  let release = block_worker p in
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let fut = Mbds.Pool.submit p 0 raise_from_task in
  let outcome =
    match Mbds.Pool.run_or_await fut with
    | _ -> None
    | exception Failure msg -> Some (msg, Printexc.get_raw_backtrace ())
  in
  Printexc.record_backtrace recording;
  release ();
  Mbds.Pool.shutdown p;
  match outcome with
  | None -> Alcotest.fail "claimed task's exception was not re-raised"
  | Some (msg, bt) ->
    Alcotest.(check string) "exception re-raised at the claimer"
      "claimed task failed" msg;
    Alcotest.(check bool) "backtrace reaches the raising task" true
      (Printexc.raw_backtrace_length bt > 0
       && contains (Printexc.raw_backtrace_to_string bt) "test_pool.ml")

let test_skipped_task_records_nothing () =
  let queue_wait = Obs.Metrics.histogram "pool.queue_wait_s" in
  let execute = Obs.Metrics.histogram "pool.execute_s" in
  let p = Mbds.Pool.create 1 in
  let release = block_worker p in
  (* the blocker has been dequeued: its queue wait is already recorded *)
  let qw0 = Obs.Metrics.histogram_count queue_wait in
  let ex0 = Obs.Metrics.histogram_count execute in
  let fut = Mbds.Pool.submit p 0 (fun () -> 5) in
  Alcotest.(check int) "claimed and run by the caller" 5
    (Mbds.Pool.run_or_await fut);
  release ();
  Mbds.Pool.shutdown p;
  Alcotest.(check int) "no queue wait for the skipped task" qw0
    (Obs.Metrics.histogram_count queue_wait);
  Alcotest.(check int) "only the blocker's execute time" (ex0 + 1)
    (Obs.Metrics.histogram_count execute)

let suite =
  [
    "submit/await", `Quick, test_submit_await;
    "owner affinity and FIFO", `Quick, test_owner_affinity_fifo;
    "exception propagation", `Quick, test_exception_propagates;
    "shutdown", `Quick, test_shutdown;
    "shared pool", `Quick, test_shared_pool;
    "claim race runs a task once", `Quick, test_claim_race_runs_once;
    "claimed exception keeps backtrace", `Quick, test_claimed_exception_backtrace;
    "skipped task records nothing", `Quick, test_skipped_task_records_nothing;
  ]

(* Tests for the MBDS domain pool: every share of a [run] runs exactly
   once, workers really take shares, the worker-less pool is the
   sequential reference, failures surface after every share finished,
   and shutdown semantics. *)

(* Runs [f] on its own domain; exits the process if it does not finish
   within [timeout_s], so a lost wake-up fails the suite instead of
   hanging it. *)
let within ~timeout_s f =
  let finished = Atomic.make false in
  let d = Domain.spawn (fun () -> Fun.protect ~finally:(fun () -> Atomic.set finished true) f) in
  let deadline = Unix.gettimeofday () +. timeout_s in
  while (not (Atomic.get finished)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if not (Atomic.get finished) then begin
    prerr_endline "Pool.run did not return: deadlock or lost wake-up";
    Unix._exit 3
  end;
  Domain.join d

let test_every_share_once () =
  for workers = 0 to 3 do
    let p = Mbds.Pool.create workers in
    Alcotest.(check int) "size" workers (Mbds.Pool.size p);
    for n = 0 to 9 do
      for _ = 1 to 20 do
        let runs = Array.init n (fun _ -> Atomic.make 0) in
        within ~timeout_s:30. (fun () ->
            Mbds.Pool.run p n (fun i -> Atomic.incr runs.(i)));
        Array.iteri
          (fun i r ->
            Alcotest.(check int)
              (Printf.sprintf "%d workers, n=%d: share %d ran once" workers n i)
              1 (Atomic.get r))
          runs
      done
    done;
    Mbds.Pool.shutdown p
  done

(* Shares 0 and 1 each wait for the other to start: [run] returns only if
   the worker ran one of them while the caller ran the other. The worker's
   share finishes last, and [run] must wait for it. *)
let handshake p =
  let started = Array.init 2 (fun _ -> Atomic.make false) in
  let finished = Array.init 2 (fun _ -> Atomic.make false) in
  within ~timeout_s:30. (fun () ->
      let caller = Domain.self () in
      Mbds.Pool.run p 2 (fun i ->
          Atomic.set started.(i) true;
          while not (Atomic.get started.(1 - i)) do
            Domain.cpu_relax ()
          done;
          if Domain.self () <> caller then Unix.sleepf 0.002;
          Atomic.set finished.(i) true));
  Alcotest.(check (list bool)) "both shares finished before run returned"
    [ true; true ] (Array.to_list (Array.map Atomic.get finished))

let test_worker_runs_a_share () =
  let p = Mbds.Pool.create 1 in
  for _ = 1 to 20 do
    handshake p
  done;
  Mbds.Pool.shutdown p

let test_no_workers_index_order () =
  let p = Mbds.Pool.create 0 in
  let caller = Domain.self () in
  let trace = ref [] in
  Mbds.Pool.run p 8 (fun i -> trace := (i, Domain.self () = caller) :: !trace);
  Alcotest.(check (list (pair int bool)))
    "index order, on the caller"
    (List.init 8 (fun i -> i, true))
    (List.rev !trace);
  Mbds.Pool.shutdown p

let test_exception_propagates () =
  let p = Mbds.Pool.create 2 in
  let ran = Atomic.make 0 in
  let outcome =
    match
      Mbds.Pool.run p 6 (fun i ->
          Atomic.incr ran;
          if i = 4 then raise Not_found;
          if i = 2 then failwith "share 2")
    with
    | () -> None
    | exception e -> Some (e, Atomic.get ran)
  in
  (match outcome with
  | Some (Failure msg, ran) ->
    Alcotest.(check string) "the lowest-indexed failure" "share 2" msg;
    Alcotest.(check int) "raised only after every share ran" 6 ran
  | Some (e, _) -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | None -> Alcotest.fail "the failure was not re-raised");
  (* the workers survive a failing share *)
  let sum = Atomic.make 0 in
  Mbds.Pool.run p 5 (fun i -> ignore (Atomic.fetch_and_add sum i));
  Alcotest.(check int) "pool still serves" 10 (Atomic.get sum);
  Mbds.Pool.shutdown p

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let raise_from_share (_ : int) : unit = failwith "claimed share failed"

let test_claimed_exception_backtrace () =
  let p = Mbds.Pool.create 0 in
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  let outcome =
    match Mbds.Pool.run p 1 raise_from_share with
    | () -> None
    | exception Failure msg -> Some (msg, Printexc.get_raw_backtrace ())
  in
  Printexc.record_backtrace recording;
  Mbds.Pool.shutdown p;
  match outcome with
  | None -> Alcotest.fail "the share's exception was not re-raised"
  | Some (msg, bt) ->
    Alcotest.(check string) "exception re-raised at the caller"
      "claimed share failed" msg;
    Alcotest.(check bool) "backtrace reaches the raising share" true
      (Printexc.raw_backtrace_length bt > 0
       && contains (Printexc.raw_backtrace_to_string bt) "test_pool.ml")

let test_caller_shares_record_nothing () =
  let queue_wait = Obs.Metrics.histogram "pool.queue_wait_s" in
  let execute = Obs.Metrics.histogram "pool.execute_s" in
  let counts () =
    Obs.Metrics.histogram_count queue_wait, Obs.Metrics.histogram_count execute
  in
  let p = Mbds.Pool.create 0 in
  let before = counts () in
  Mbds.Pool.run p 4 ignore;
  Alcotest.(check (pair int int)) "no worker, nothing recorded" before (counts ());
  Mbds.Pool.shutdown p;
  (* in the handshake the worker runs exactly one of the two shares *)
  let p = Mbds.Pool.create 1 in
  let qw, ex = counts () in
  handshake p;
  Alcotest.(check (pair int int)) "the worker's share recorded once"
    (qw + 1, ex + 1) (counts ());
  Mbds.Pool.shutdown p

let test_shutdown () =
  Alcotest.(check bool) "negative size rejected" true
    (match Mbds.Pool.create (-1) with
     | exception Invalid_argument _ -> true
     | _ -> false);
  List.iter
    (fun workers ->
      let p = Mbds.Pool.create workers in
      Mbds.Pool.shutdown p;
      (* idempotent *)
      Mbds.Pool.shutdown p;
      Alcotest.(check bool) "run after shutdown rejected" true
        (match Mbds.Pool.run p 2 ignore with
         | exception Invalid_argument _ -> true
         | () -> false))
    [ 0; 2 ]

let test_shared_pool () =
  let p = Mbds.Pool.shared () in
  Alcotest.(check bool) "shared pool is a singleton" true
    (p == Mbds.Pool.shared ());
  Alcotest.(check int) "one worker per spare core, at most 8"
    (min 8 (Domain.recommended_domain_count () - 1))
    (Mbds.Pool.size p);
  let sum = Atomic.make 0 in
  Mbds.Pool.run p 4 (fun i -> ignore (Atomic.fetch_and_add sum (i + 1)));
  Alcotest.(check int) "shared pool serves work" 10 (Atomic.get sum)

let suite =
  [
    "claim race runs a task once", `Quick, test_every_share_once;
    "a worker runs a share", `Quick, test_worker_runs_a_share;
    "no workers: caller, index order", `Quick, test_no_workers_index_order;
    "exception propagation", `Quick, test_exception_propagates;
    "claimed exception keeps backtrace", `Quick, test_claimed_exception_backtrace;
    "caller-run shares record nothing", `Quick, test_caller_shares_record_nothing;
    "shutdown", `Quick, test_shutdown;
    "shared pool", `Quick, test_shared_pool;
  ]

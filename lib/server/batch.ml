let h_run_len =
  Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "server.read_run_len"

let run_inline ~deliver tasks =
  List.map
    (fun task ->
      let v = task () in
      deliver v;
      v)
    tasks

(* The asynchronous variant: fan the run out and return immediately with
   an await thunk, so the caller (the executor) can keep executing
   writes at later epochs while the snapshot-pinned reads are still in
   flight. Without a usable pool the tasks run inline right now — the
   caller gets barrier semantics automatically. The await thunk must be
   called exactly once, from the dispatching thread. *)
let dispatch ?pool tasks =
  Obs.Metrics.observe h_run_len (float_of_int (List.length tasks));
  let usable =
    match pool with Some p when Mbds.Pool.size p > 1 -> Some p | _ -> None
  in
  match tasks, usable with
  | [], _ -> fun () -> []
  | _, None ->
    let results = List.map (fun task -> task ()) tasks in
    fun () -> results
  | _, Some pool ->
    let arr = Array.of_list tasks in
    let futures = Array.mapi (fun i task -> Mbds.Pool.submit pool i task) arr in
    fun () ->
      let outcomes =
        Array.map
          (fun future ->
            match Mbds.Pool.await future with
            | v -> Ok v
            | exception e -> Error (e, Printexc.get_raw_backtrace ()))
          futures
      in
      Array.to_list outcomes
      |> List.map (function
           | Ok v -> v
           | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let run_reads ?pool ?(deliver = fun _ -> ()) tasks =
  Obs.Metrics.observe h_run_len (float_of_int (List.length tasks));
  match tasks, pool with
  | [], _ -> []
  | [ task ], _ ->
    let v = task () in
    deliver v;
    [ v ]
  | _, None -> run_inline ~deliver tasks
  | _, Some pool when Mbds.Pool.size pool <= 1 -> run_inline ~deliver tasks
  | _, Some pool ->
    (* fan out round-robin over the pool's workers, then await in task
       order — results come back positionally, independent of which task
       finished first. Await everything before re-raising so a failing
       task never leaves a sibling's future abandoned mid-run; [deliver]
       runs as each result is awaited (in task order), so early results
       stream out while later tasks are still in flight. *)
    let arr = Array.of_list tasks in
    let futures = Array.mapi (fun i task -> Mbds.Pool.submit pool i task) arr in
    let outcomes =
      Array.map
        (fun future ->
          match Mbds.Pool.await future with
          | v ->
            deliver v;
            Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ()))
        futures
    in
    Array.to_list outcomes
    |> List.map (function
         | Ok v -> v
         | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

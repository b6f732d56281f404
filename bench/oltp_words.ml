(* Words the request path allocates and promotes over one oltp-point
   client stream, run in-process.

   [run ~seed ~ops ()] preloads the benchmark's oltp-point databases
   (seed [seed]), then replays the first [ops] operations of client 0's
   stream ([Perfbench.Workloads.ops]) through [Mlds.System.submit_handle]:
   a login op closes the session and opens a new one, a checkpoint op is
   skipped (nothing here has a WAL). [?only] keeps one language's ops of
   that stream and drops the rest. [?each] runs after every op drawn,
   with its count (1 for the first). [minor] counts the stream's own text
   formatting too. A minor collection on each side of the window makes
   [promoted] everything the window allocated that outlived the minor
   heap, and nothing the preload left there. *)

(* Program-wide minor and promoted words. [Gc.counters] reads the calling
   domain's alone, and once a pool worker domain exists it helps empty the
   caller's minor heap, so the caller's own count of promoted words drops
   (by a sixth here) with no change in what was promoted. *)
let counters () =
  let s = Gc.quick_stat () in
  s.minor_words, s.promoted_words

type t = { ran : int; minor : float; promoted : float; hit_ratio : float }

let run ?only ?(each = ignore) ~seed ~ops () =
  let module W = Perfbench.Workloads in
  let sys = W.create_system W.Oltp_point in
  W.preload W.Oltp_point ~seed sys;
  let next = W.ops W.Oltp_point ~seed ~client:0 (W.catalog W.Oltp_point sys) in
  let handle = ref None in
  let ran = ref 0 in
  let step (op : W.op) =
    if op.login then begin
      Option.iter Mlds.System.close_handle !handle;
      handle :=
        match Mlds.System.open_handle sys op.lang ~db:op.db with
        | Ok h -> Some h
        | Error msg -> failwith ("login: " ^ msg)
    end;
    match !handle with
    | Some h ->
      (match Mlds.System.submit_handle h op.text with
      | Ok _ -> incr ran
      | Error e ->
        failwith (op.text ^ ": " ^ Mlds.System.handle_error_to_string e))
    | None -> failwith "op before the first login"
  in
  let cache = Mlds.System.stmt_cache sys in
  let hits0 = Mlds.Stmt_cache.hits cache
  and misses0 = Mlds.Stmt_cache.misses cache in
  Gc.minor ();
  let minor0, promoted0 = counters () in
  for i = 1 to ops do
    let op = next () in
    if op.kind <> W.Checkpoint
       && match only with None -> true | Some l -> op.lang = l
    then step op;
    each i
  done;
  Gc.minor ();
  let minor1, promoted1 = counters () in
  Option.iter Mlds.System.close_handle !handle;
  let hits = Mlds.Stmt_cache.hits cache - hits0 in
  let lookups = hits + Mlds.Stmt_cache.misses cache - misses0 in
  {
    ran = !ran;
    minor = minor1 -. minor0;
    promoted = promoted1 -. promoted0;
    hit_ratio = float_of_int hits /. float_of_int (max 1 lookups);
  }

let per_op t words = words /. float_of_int (max 1 t.ran)

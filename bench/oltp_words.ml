(* Words the request path allocates and promotes over one benchmark
   client stream, run in-process: oltp-point's ([run]) and scan-mbds's
   reads ([scan_reads], below).

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

(* A session that follows a stream: a login op closes the session and
   opens the op's; [close] ends the last one. *)
type session = {
  step : ?buf:Buffer.t -> Perfbench.Workloads.op -> unit;
  close : unit -> unit;
}

let check text = function
  | Ok _ -> ()
  | Error e -> failwith (text ^ ": " ^ Mlds.System.handle_error_to_string e)

let session sys =
  let handle = ref None in
  let step ?buf (op : Perfbench.Workloads.op) =
    if op.login then begin
      Option.iter Mlds.System.close_handle !handle;
      handle :=
        match Mlds.System.open_handle sys op.lang ~db:op.db with
        | Ok h -> Some h
        | Error msg -> failwith ("login: " ^ msg)
    end;
    match !handle, buf with
    | Some h, Some buf ->
      check op.text (Mlds.System.submit_handle_into buf h op.text)
    | Some h, None -> check op.text (Mlds.System.submit_handle h op.text)
    | None, _ -> failwith "op before the first login"
  in
  { step; close = (fun () -> Option.iter Mlds.System.close_handle !handle) }

type t = { ran : int; minor : float; promoted : float }

let run ?only ?(each = ignore) ~seed ~ops () =
  let module W = Perfbench.Workloads in
  let sys = W.create_system W.Oltp_point in
  W.preload W.Oltp_point ~seed sys;
  let next = W.ops W.Oltp_point ~seed ~client:0 (W.catalog W.Oltp_point sys) in
  let s = session sys in
  let ran = ref 0 in
  Gc.minor ();
  let minor0, promoted0 = counters () in
  for i = 1 to ops do
    let op = next () in
    if op.kind <> W.Checkpoint
       && match only with None -> true | Some l -> op.lang = l
    then begin
      s.step op;
      incr ran
    end;
    each i
  done;
  Gc.minor ();
  let minor1, promoted1 = counters () in
  s.close ();
  { ran = !ran; minor = minor1 -. minor0; promoted = promoted1 -. promoted0 }

let per_op t words = words /. float_of_int (max 1 t.ran)

(* The scan-mbds read path on a 2-backend MBDS whose pool has no
   workers, so every backend's share runs on the calling domain and its
   minor words are counted: [scan_system ()] preloads the benchmark's
   seed-[seed] database, [scan_reads] replays client 0's stream. *)
let scan_system ~seed =
  let module W = Perfbench.Workloads in
  let sys =
    Mlds.System.create ~backends:(W.backends W.Scan_mbds)
      ~pool:(Mbds.Pool.create 0) ()
  in
  W.preload W.Scan_mbds ~seed sys;
  sys

(* [scan_reads sys ~seed ~warmup ~reads f] runs client 0's first
   [warmup] ops, then the stream on until [reads] more reads have run,
   each through [f step op] (its writes run uncounted, its checkpoints
   are skipped); [f] measures what it likes around the step. Every
   submit formats into one reply buffer, as the server's executor
   does. *)
let scan_reads sys ~seed ~warmup ~reads f =
  let module W = Perfbench.Workloads in
  let next = W.ops W.Scan_mbds ~seed ~client:0 (W.catalog W.Scan_mbds sys) in
  let s = session sys in
  let buf = Buffer.create 4096 in
  let step op = s.step ~buf op in
  for _ = 1 to warmup do
    let op = next () in
    if op.kind <> W.Checkpoint then step op
  done;
  let left = ref reads in
  while !left > 0 do
    let op = next () in
    match op.kind with
    | W.Checkpoint -> ()
    | W.Write -> step op
    | W.Read ->
      f step op;
      decr left
  done;
  s.close ()

(* Minor words per read over [scan_reads]: the calling domain's
   ([Gc.minor_words]), which with no pool worker is every domain's. *)
let scan_minor_per_read ~seed ~warmup ~reads =
  let sys = scan_system ~seed in
  let minor = ref 0. in
  scan_reads sys ~seed ~warmup ~reads (fun step op ->
      let m0 = Gc.minor_words () in
      step op;
      minor := !minor +. (Gc.minor_words () -. m0));
  !minor /. float_of_int reads

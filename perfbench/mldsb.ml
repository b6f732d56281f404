(* The MLDS benchmark load generator. One run:

   1. builds the serial oracle in-process (same preload as the server);
   2. starts the server process, timing spawn -> every client session
      logged in, and keeps the third start (the first two are only timed);
   3. drives it with [Workloads.clients] closed-loop clients, each a thread
      with one connection: a fixed-count untimed warm-up, after which the
      server's memory is read (server_rss_mb), then the timed window;
   4. SIGKILLs the server; five times, a fresh process recovers every
      database from its snapshot and WAL (recover_s is the median); eight
      more starts are timed (setup_s is the median of all eleven);
   5. replays every client's op stream serially through the oracle and
      compares each reply's digest, then checks that every acked write is
      readable after recovery;
   6. prints the metrics, the last line being one JSON object: with
      --trace 0 the end-to-end metrics, setup_s and server_rss_mb.

   With --trace 1 the run also records spans (client calls, the replay's
   calls into each layer), pairs ops with the server's flight recorder,
   takes Stats deltas over the window, and prints the per-layer metrics,
   the window's throughput and latencies among them.

   usage: mldsb.exe --workload W --seed N --seconds S --trace 0|1
                    --server-exe PATH --work-dir DIR *)

open Perfbench
module W = Workloads

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("mldsb: " ^ msg); exit 1) fmt

let now = Unix.gettimeofday

(* --- arguments ---------------------------------------------------------- *)

type args = {
  w : W.t;
  seed : int;
  seconds : float;
  trace : bool;
  server_exe : string;
  work_dir : string;
}

let parse_args () =
  let get = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace get k v;
      go rest
    | [] -> ()
    | k :: _ -> die "unexpected argument %s" k
  in
  go (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt get k with Some v -> v | None -> die "missing %s" k in
  let int k = match int_of_string_opt (arg k) with Some n -> n | None -> die "bad %s" k in
  {
    w = (match W.of_name (arg "--workload") with Some w -> w | None -> die "unknown workload");
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace = int "--trace" = 1;
    server_exe = arg "--server-exe";
    work_dir = arg "--work-dir";
  }

(* --- the server process -------------------------------------------------- *)

let live_pids = ref []

let kill_server pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live_pids := List.filter (( <> ) pid) !live_pids

let () = at_exit (fun () -> List.iter kill_server !live_pids)

let read_line_timeout fd ~timeout =
  let buf = Buffer.create 64 and byte = Bytes.create 1 in
  let deadline = now () +. timeout in
  let rec go () =
    let left = deadline -. now () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> None
      | _ ->
        if Unix.read fd byte 0 1 = 0 then None
        else if Bytes.get byte 0 = '\n' then Some (Buffer.contents buf)
        else (
          Buffer.add_char buf (Bytes.get byte 0);
          go ())
  in
  go ()

(* spawn the server on [dir]; returns (pid, port) once it listens *)
let spawn_server a ~dir =
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process a.server_exe
      [| a.server_exe; "serve"; W.name a.w; string_of_int a.seed; dir |]
      Unix.stdin wr Unix.stderr
  in
  live_pids := pid :: !live_pids;
  Unix.close wr;
  let line = read_line_timeout r ~timeout:120. in
  Unix.close r;
  match Option.map (String.split_on_char ' ') line with
  | Some [ "ready"; port ] -> pid, int_of_string port
  | _ -> die "server did not start"

let proc_field pid key =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | l when String.starts_with ~prefix:(key ^ ":") l ->
          Scanf.sscanf (String.sub l (String.length key + 1) (String.length l - String.length key - 1))
            " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

(* user + system CPU seconds of a process: fields 14 and 15 of
   /proc/<pid>/stat, in clock ticks (100 per second on Linux) *)
let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let close = String.rindex line ')' in
  (* [f.(0)] is field 3, just past the parenthesised command name *)
  let f = Array.of_list (String.split_on_char ' ' (String.sub line (close + 2) (String.length line - close - 2))) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* steal and total ticks of the host so far (/proc/stat "cpu" line) *)
let host_ticks () =
  let ic = open_in "/proc/stat" in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  let f = List.filter_map int_of_string_opt (String.split_on_char ' ' line) in
  let steal = try List.nth f 7 with _ -> 0 in
  steal, List.fold_left ( + ) 0 f

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- host facts ---------------------------------------------------------- *)

(* median latency of a 4 KiB write + fsync on the WAL's filesystem *)
let fsync_probe dir =
  let file = Filename.concat dir "fsync.probe" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let block = Bytes.make 4096 'f' in
  let samples =
    List.init 40 (fun _ ->
        ignore (Unix.write fd block 0 4096);
        let t0 = now () in
        Unix.fsync fd;
        (now () -. t0) *. 1e6)
  in
  Unix.close fd;
  Sys.remove file;
  Pct.median samples

(* --- one client ---------------------------------------------------------- *)

type result = {
  idx : int;
  op : W.op;
  lat_us : float;
  ok : bool;
  reply : string;  (** digest of the reply text ("" when failed) *)
  timed : bool;  (** completed inside the timed window *)
  t_done : float;
  traced_slice : bool;
  session : int;
  request : int;  (** wire request id, for pairing with the recorder *)
  user_bytes : int;
  ckpt_reclaimed : int;
}

type event = { e_seq : int; e_session : int; e_request : int; e_latency_s : float; e_batch : int }

type client = {
  c : int;
  conn : Client.t;
  next : unit -> W.op;
  mutable pending : W.op option;  (** an op whose session [login] already opened *)
  mutable i : int;
  mutable requests : int;  (** request ids the connection has used *)
  mutable results : result list;
  mutable failures : string list;
  mutable cursor : int;
  mutable slow_cursor : int;
  mutable events : event list;
  spans : Trace.t;
  mutable login_failed : int;
  mutable logins : int;
}

(* Every Client call goes through [call], which keeps the connection's
   request-id count (ids start at 1 and grow by one per call) and, when
   [span] is set, records a client span. *)
let call cl ~span ~op name f =
  cl.requests <- cl.requests + 1;
  if span then Trace.with_span cl.spans ~op ~parent:0 name (fun _ -> f ()) else f ()

let retry_budget = 200

let rec with_retries n f =
  match f () with
  | Error `Overloaded when n < retry_budget ->
    Unix.sleepf 0.001;
    with_retries (n + 1) f
  | r -> r

let drain_tail cl ~span =
  let module J = Obs.Json in
  let rec go () =
    match
      call cl ~span ~op:(-1) "client.tail" (fun () ->
          Client.tail cl.conn ~max_events:4096 ~cursor:cl.cursor ~slow_cursor:cl.slow_cursor ())
    with
    | Error e -> cl.failures <- ("tail: " ^ Client.error_to_string e) :: cl.failures
    | Ok text ->
      (match J.parse text with
      | Error _ -> ()
      | Ok j ->
        let int k o = Option.value ~default:0 (J.int_member k o) in
        cl.cursor <- int "cursor" j;
        cl.slow_cursor <- int "slow_cursor" j;
        let evs = Option.value ~default:[] (Option.bind (J.member "events" j) J.to_arr) in
        List.iter
          (fun e ->
            if J.str_member "opcode" e = Some "submit" then
              cl.events <-
                {
                  e_seq = int "seq" e;
                  e_session = int "session" e;
                  e_request = int "request" e;
                  e_latency_s = Option.value ~default:0. (J.num_member "latency_s" e);
                  e_batch = int "batch" e;
                }
                :: cl.events)
          evs;
        if List.length evs >= 4096 then go ())
  in
  go ()

(* the checkpoint reply: "checkpoint complete: F (reclaimed N WAL bytes in Ts)" *)
let reclaimed_of reply = try Scanf.sscanf reply "%_s@(reclaimed %d" Fun.id with _ -> 0

let login cl ~span ~opid (op : W.op) =
  cl.logins <- cl.logins + 1;
  if Client.session_id cl.conn <> None then
    ignore (call cl ~span ~op:opid "client.logout" (fun () -> Client.logout cl.conn));
  match
    call cl ~span ~op:opid "client.login" (fun () ->
        Client.login cl.conn ~user:(Printf.sprintf "c%d" cl.c)
          ~language:(Mlds.System.language_to_string op.lang) ~db:op.db ())
  with
  | Ok _ -> ()
  | Error e ->
    cl.login_failed <- cl.login_failed + 1;
    cl.failures <- ("login: " ^ Client.error_to_string e) :: cl.failures

(* Run the client's next op; [window t] tells whether a completion at [t]
   lies in the timed window and in a traced slice. *)
let run_op cl ~window ~span =
  let op, logged_in =
    match cl.pending with
    | Some op ->
      cl.pending <- None;
      op, true
    | None -> cl.next (), false
  in
  let idx = cl.i in
  cl.i <- idx + 1;
  let opid = (cl.c * 100_000_000) + idx in
  if op.W.login && not logged_in then login cl ~span ~opid op;
  let session = Option.value ~default:0 (Client.session_id cl.conn) in
  let t0 = now () in
  let res =
    match op.kind with
    | W.Checkpoint ->
      with_retries 0 (fun () ->
          call cl ~span ~op:opid "client.checkpoint" (fun () -> Client.checkpoint cl.conn))
    | W.Read | W.Write ->
      with_retries 0 (fun () ->
          call cl ~span ~op:opid "client.submit" (fun () -> Client.submit cl.conn op.text))
  in
  let t1 = now () in
  let request = cl.requests in
  let ok, reply =
    match res with
    | Ok out -> true, out
    | Error e ->
      cl.failures <- (Printf.sprintf "op %d: %s" idx (Client.error_to_string e)) :: cl.failures;
      false, ""
  in
  let timed, traced_slice = window t1 in
  cl.results <-
    {
      idx;
      op;
      lat_us = (t1 -. t0) *. 1e6;
      ok;
      reply = (if ok && op.kind <> W.Checkpoint then Digest.string reply else "");
      timed;
      t_done = t1;
      traced_slice;
      session;
      request;
      user_bytes = (if op.kind = W.Write then String.length op.text else 0);
      ckpt_reclaimed = (if op.kind = W.Checkpoint && ok then reclaimed_of reply else 0);
    }
    :: cl.results

(* --- the load phase ------------------------------------------------------ *)

(* Warm-up is a fixed number of ops per client, untimed, so lazy index
   builds and the statement cache settle, and the server has done the same
   work whenever its memory is read at the end of it, however fast the
   host runs. *)
let warmup_ops = function
  | W.Oltp_point -> 3000
  | W.Scan_mbds -> 1000
  | W.Ingest_durable -> 500

(* the timed metrics are medians over this many equal parts of the window *)
let parts = 10

(* server starts and recoveries per run; setup_s and recover_s are their
   medians. [setups_before] of the starts come before the load (the last
   one is the server under load), the rest after the recoveries, so the
   median spans the whole run rather than one burst of host steal. *)
let setup_runs = 11

let setups_before = 3

let recover_runs = 5

(* tracing alternates with plain running in slices of this length, so the
   traced and untraced throughputs come from the same stretch of the run *)
let slice_s = 0.25

type window = {
  mutable t_start : float;
  mutable t_end : float;
  go : bool Atomic.t;
  ready : int Atomic.t;
}

let drive a ~pid clients =
  let win =
    { t_start = infinity; t_end = infinity; go = Atomic.make false;
      ready = Atomic.make 0 }
  in
  let position t =
    if t < win.t_start || t > win.t_end then false, false
    else true, a.trace && int_of_float ((t -. win.t_start) /. slice_s) mod 2 = 1
  in
  let body cl () =
    for _ = 1 to warmup_ops a.w do
      run_op cl ~window:position ~span:false
    done;
    Atomic.incr win.ready;
    while not (Atomic.get win.go) do
      Unix.sleepf 0.0005
    done;
    let since_drain = ref 0 in
    while now () < win.t_end do
      let _, traced = position (now ()) in
      run_op cl ~window:position ~span:traced;
      incr since_drain;
      (* the flight recorder is server-wide: client 0 drains it for both
         clients, well before its 4096 events wrap *)
      if traced && cl.c = 0 && !since_drain >= 256 then begin
        since_drain := 0;
        drain_tail cl ~span:true
      end
    done
  in
  let threads = List.map (fun cl -> Thread.create (body cl) ()) clients in
  while Atomic.get win.ready < List.length clients do
    Unix.sleepf 0.0005
  done;
  (* the server is idle here, after the same work on every host *)
  let warm_rss_mb = float_of_int (proc_field pid "VmHWM") /. 1024. in
  let c0 = List.hd clients in
  (* skip the warm-up's events *)
  if a.trace then drain_tail c0 ~span:false;
  let stats () =
    if not a.trace then None
    else
      match call c0 ~span:false ~op:(-1) "client.stats" (fun () -> Client.stats c0.conn) with
      | Ok text -> (match Statsjson.parse text with Ok s -> Some s | Error e -> die "stats: %s" e)
      | Error e -> die "stats: %s" (Client.error_to_string e)
  in
  let before = stats () in
  let gen_cpu0 = self_cpu_s () in
  win.t_start <- now ();
  win.t_end <- win.t_start +. a.seconds;
  Atomic.set win.go true;
  (* the host's steal and total CPU ticks at each part boundary *)
  let marks =
    List.init (parts + 1) (fun k ->
        let at = win.t_start +. (a.seconds *. float_of_int k /. float_of_int parts) in
        let wait = at -. now () in
        if wait > 0. then Unix.sleepf wait;
        host_ticks ())
  in
  List.iter Thread.join threads;
  let gen_cpu = self_cpu_s () -. gen_cpu0 in
  if a.trace then drain_tail c0 ~span:false;
  let after = stats () in
  let delta =
    match before, after with
    | Some before, Some after -> Statsjson.delta ~before ~after
    | _ -> []
  in
  win, gen_cpu, delta, marks, warm_rss_mb

(* --- recovery ------------------------------------------------------------ *)

(* One timed recovery: a fresh process rebuilds every database from its
   snapshot and WAL and exits. Returns (seconds, frames, replay seconds). *)
let recover_process a ~dir dbs =
  let r, wr = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process a.server_exe
      (Array.of_list ((a.server_exe :: "recover" :: dir :: dbs)))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let line = read_line_timeout r ~timeout:60. in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let dt = now () -. t0 in
  match line, status with
  | Some l, Unix.WEXITED 0 -> Scanf.sscanf l "recovered %d %f" (fun frames replay_s -> dt, frames, replay_s)
  | _ -> die "recovery process failed"

(* --- the serial replay ---------------------------------------------------- *)

let language_key = function
  | Mlds.System.L_abdl -> "abdl"
  | L_sql -> "sql"
  | L_codasyl -> "codasyl"
  | L_daplex -> "daplex"
  | L_dli -> "dli"

let all_languages = Mlds.System.[ L_abdl; L_sql; L_codasyl; L_daplex; L_dli ]

(* the language front end alone, as the replay's lil.parse span *)
let parse_only lang src =
  try
    match lang with
    | Mlds.System.L_abdl -> ignore (Abdl.Parser.transaction src)
    | L_sql -> ignore (Relational.Sql_parser.program src)
    | L_codasyl -> ignore (Codasyl_dml.Parser.program src)
    | L_daplex -> ignore (Daplex_dml.Parser.program src)
    | L_dli -> ignore (Hierarchical.Dli_parser.program src)
  with _ -> ()

(* records examined so far by a kernel's store(s) *)
let examined kernel =
  match Mapping.Kernel.kds kernel with
  | Mapping.Kernel.Single store -> float_of_int (Abdm.Store.scan_count store)
  | Multi ctrl ->
    List.fold_left (fun acc (s, _, _) -> acc +. float_of_int s) 0. (Mbds.Controller.backend_loads ctrl)

type replay_stats = {
  mutable mismatches : int;
  mutable compared : int;
  mutable rows : float;
  mutable examined : float;
  mutable req_bytes : float;
  mutable resp_bytes : float;
  mutable codec_ops : int;
}

let submit_text h text =
  match Mlds.System.submit_handle h text with
  | Ok out -> out
  | Error e -> "ERROR " ^ Mlds.System.handle_error_to_string e

let codec ~request ~text ~reply rs =
  let module Wi = Server.Wire in
  let req = Wi.encode_request { version = Wi.protocol_version; request_id = request; session_id = 1; msg = Wi.Submit text } in
  ignore (Wi.decode_request req);
  let resp = Wi.encode_response { version = Wi.protocol_version; request_id = request; session_id = 1; msg = Wi.Output reply } in
  ignore (Wi.decode_response resp);
  rs.req_bytes <- rs.req_bytes +. float_of_int (String.length req);
  rs.resp_bytes <- rs.resp_bytes +. float_of_int (String.length resp);
  rs.codec_ops <- rs.codec_ops + 1

(* The traced replay follows each client's first this-many ops through
   every layer; the rest are replayed plainly, which bounds a traced run's
   length on the slowest workload. *)
let traced_replay_ops = 4_000

(* Replay one client's executed ops, in order, through the oracle. *)
let replay_client a ~oracle ~cat ~spans ~rs ~memo ~c results =
  let next = W.ops a.w ~seed:a.seed ~client:c cat in
  let handle = ref None in
  (* Where a read text has one reply for the whole run, the plain replay
     executes it once and reuses the reply: the serial answer is the same,
     and the replay of scan-mbds would otherwise cost as much CPU as the
     server's whole window. *)
  let memo_read op h =
    let key = (op : W.op).lang, op.db, op.text in
    match Hashtbl.find_opt memo key with
    | Some reply -> reply
    | None ->
      let reply = submit_text h op.text in
      Hashtbl.replace memo key reply;
      reply
  in
  List.iter
    (fun r ->
      let op = next () in
      if W.render op <> W.render r.op then die "replay: op stream diverged at client %d op %d" c r.idx;
      if op.W.login then begin
        Option.iter Mlds.System.close_handle !handle;
        handle :=
          match Mlds.System.open_handle ~user:(Printf.sprintf "c%d" c) oracle op.lang ~db:op.db with
          | Ok h -> Some h
          | Error e -> die "replay login: %s" e
      end;
      match op.kind, !handle with
      | W.Checkpoint, _ | _, None -> ()
      | (W.Read | W.Write), Some h ->
        let opid = (c * 100_000_000) + r.idx in
        let lang = language_key op.lang in
        let reply =
          let memo_ok = op.kind = W.Read && not (W.reads_see_writes a.w) in
          let traced = spans <> None && r.idx < traced_replay_ops in
          (* the program's own spans, read only for traced ops *)
          Obs.Span.set_enabled traced;
          match spans with
          | Some sp when traced ->
            Trace.with_span sp ~op:opid ~parent:0 "op" (fun root ->
                Trace.with_span sp ~op:opid ~parent:root ("lil.parse." ^ lang) (fun _ ->
                    parse_only op.lang op.text);
                let reply =
                  Trace.with_span sp ~op:opid ~parent:root ("mlds.submit." ^ lang) (fun id ->
                      let out = submit_text h op.text in
                      List.iter (Trace.graft sp ~op:opid ~parent:id) (Obs.Span.take_roots ());
                      out)
                in
                Trace.with_span sp ~op:opid ~parent:root "wire.codec" (fun _ ->
                    codec ~request:r.request ~text:op.text ~reply rs);
                (* the kernel path alone, for ABDL reads: parse, run on the
                   kernel (or the MBDS controller), format *)
                (if op.lang = L_abdl && op.kind = W.Read then
                   match Mlds.System.kernel_of oracle op.db with
                   | None -> ()
                   | Some k ->
                     let req = Abdl.Parser.request op.text in
                     let e0 = examined k in
                     let res =
                       Trace.with_span sp ~op:opid ~parent:root "abdl.kernel" (fun _ ->
                           match Mapping.Kernel.kds k with
                           | Mapping.Kernel.Multi ctrl -> Mbds.Controller.run ctrl req
                           | Single _ -> Mapping.Kernel.run k req)
                     in
                     ignore (Obs.Span.take_roots ());
                     rs.examined <- rs.examined +. (examined k -. e0);
                     (match res with
                     | Abdl.Exec.Rows rows -> rs.rows <- rs.rows +. float_of_int (List.length rows)
                     | _ -> ());
                     let text =
                       Trace.with_span sp ~op:opid ~parent:root "abdl.kfs_format" (fun _ ->
                           Mlds.Kfs.format_abdl [ req, res ])
                     in
                     if text <> reply then begin
                       rs.mismatches <- rs.mismatches + 1;
                       prerr_endline ("kernel path differs from submit for: " ^ op.text)
                     end);
                if memo_ok then Hashtbl.replace memo (op.lang, op.db, op.text) reply;
                reply)
          | Some _ | None -> if memo_ok then memo_read op h else submit_text h op.text
        in
        if r.ok then begin
          rs.compared <- rs.compared + 1;
          if Digest.string reply <> r.reply then begin
            rs.mismatches <- rs.mismatches + 1;
            if rs.mismatches <= 5 then
              Printf.eprintf "reply mismatch: client %d op %d: %s\n  oracle: %s\n%!" c r.idx op.text
                (String.escaped (String.sub reply 0 (min 200 (String.length reply))))
          end
        end)
    results;
  Option.iter Mlds.System.close_handle !handle

(* --- acked-write checks after recovery ------------------------------------ *)

(* Each acked write's read-back statement must read the same on the
   recovered system as on the oracle; returns the acked writes whose
   effect is missing, and whether the full database dumps agree. *)
let check_recovered ~recovered ~oracle ~dbs results =
  let handles = Hashtbl.create 8 in
  let handle sys tag (op : W.op) =
    let key = tag, op.lang, op.db in
    match Hashtbl.find_opt handles key with
    | Some h -> h
    | None ->
      let h =
        match Mlds.System.open_handle sys op.lang ~db:op.db with
        | Ok h -> h
        | Error e -> die "check session: %s" e
      in
      Hashtbl.replace handles key h;
      h
  in
  let verdict = Hashtbl.create 1024 in
  let lost = ref 0 in
  List.iter
    (fun r ->
      match r.op.W.kind, r.op.check, r.ok with
      | W.Write, Some check, true ->
        let same =
          match Hashtbl.find_opt verdict (r.op.lang, r.op.db, check) with
          | Some v -> v
          | None ->
            let v =
              submit_text (handle recovered `R r.op) check = submit_text (handle oracle `O r.op) check
            in
            Hashtbl.replace verdict (r.op.lang, r.op.db, check) v;
            if not v then Printf.eprintf "acked write not readable after recovery: %s\n%!" r.op.text;
            v
        in
        if not same then incr lost
      | _ -> ())
    results;
  Hashtbl.iter (fun _ h -> Mlds.System.close_handle h) handles;
  let dumps_agree =
    List.for_all
      (fun db -> Mlds.Persist.dump recovered ~db = Mlds.Persist.dump oracle ~db)
      dbs
  in
  !lost, dumps_agree

(* --- output ---------------------------------------------------------------- *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Obs.Json.quote name)
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
           (Obs.Json.quote unit_))
       metrics)

let mean_span summary name =
  match List.assoc_opt name summary with
  | Some (n, total, _) when n > 0 -> total /. float_of_int n *. 1e6
  | _ -> 0.

let () =
  let a = parse_args () in
  (try Unix.mkdir a.work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let nproc = Domain.recommended_domain_count () in
  let fsync_us = fsync_probe a.work_dir in
  (* the oracle: the same preload, in-process, never served *)
  let oracle = W.create_system a.w in
  W.preload a.w ~seed:a.seed oracle;
  let cat = W.catalog a.w oracle in
  let dbs = List.map fst (Mlds.System.databases oracle) in
  (* setup_s: spawn -> every client session logged in, [setup_runs] times *)
  let setup k =
    let dir = Filename.concat a.work_dir (Printf.sprintf "server%d" k) in
    Unix.mkdir dir 0o755;
    let t0 = now () in
    let pid, port = spawn_server a ~dir in
    let clients =
      List.init W.clients (fun c ->
          let conn =
            match Client.connect ~port () with Ok conn -> conn | Error e -> die "connect: %s" e
          in
          let cl =
            { c; conn; next = W.ops a.w ~seed:a.seed ~client:c cat; pending = None; i = 0; requests = 0;
              results = []; failures = []; cursor = 0; slow_cursor = 0;
              events = []; spans = Trace.create ~base:((c + 1) * 1_000_000_000) ();
              login_failed = 0; logins = 0 }
          in
          (* the stream's first op opens the client's first session *)
          let op = cl.next () in
          login cl ~span:false ~opid:0 op;
          cl.pending <- Some op;
          cl)
    in
    let dt = now () -. t0 in
    dir, pid, clients, dt
  in
  (* a start that is only timed *)
  let timed_setup k =
    let _, pid, clients, dt = setup k in
    List.iter (fun cl -> Client.abandon cl.conn) clients;
    kill_server pid;
    dt
  in
  let early = List.init (setups_before - 1) timed_setup in
  let dir, pid, clients, dt_kept = setup (setups_before - 1) in
  let ping_us =
    if not a.trace then 0.
    else
      let cl = List.hd clients in
      Pct.median
        (List.init 200 (fun _ ->
             let t0 = now () in
             ignore (call cl ~span:false ~op:(-1) "client.ping" (fun () -> Client.ping cl.conn));
             (now () -. t0) *. 1e6))
  in
  let cpu0 = proc_cpu_s pid in
  let win, gen_cpu, delta, marks, warm_rss_mb = drive a ~pid clients in
  let server_cpu = proc_cpu_s pid -. cpu0 in
  let peak_rss_mb = float_of_int (proc_field pid "VmHWM") /. 1024. in
  List.iter (fun cl -> Client.abandon cl.conn) clients;
  kill_server pid;
  (* recover_s: [recover_runs] fresh processes recover from the same files *)
  let recoveries = List.init recover_runs (fun _ -> recover_process a ~dir dbs) in
  let recover_s = Pct.median (List.map (fun (dt, _, _) -> dt) recoveries) in
  let _, frames, replay_s = List.hd recoveries in
  let late = List.init (setup_runs - setups_before) (fun k -> timed_setup (setups_before + k)) in
  let setup_s = Pct.median ((dt_kept :: early) @ late) in
  (* the recovered state the acked-write check reads *)
  let recovered, _, _ = Recovery.recover ~dir dbs in
  let wal_bytes =
    List.fold_left (fun acc db -> acc + (Unix.stat (Filename.concat dir (db ^ ".wal"))).Unix.st_size) 0 dbs
  in
  (* the serial replay: every reply checked against the oracle *)
  let spans = if a.trace then Some (Trace.create ()) else None in
  let rs = { mismatches = 0; compared = 0; rows = 0.; examined = 0.; req_bytes = 0.; resp_bytes = 0.; codec_ops = 0 } in
  let memo = Hashtbl.create 4096 in
  List.iter
    (fun cl -> replay_client a ~oracle ~cat ~spans ~rs ~memo ~c:cl.c (List.rev cl.results))
    clients;
  Obs.Span.set_enabled false;
  let all = List.concat_map (fun cl -> cl.results) clients in
  let lost, dumps_agree = check_recovered ~recovered ~oracle ~dbs all in
  (* counts *)
  let count p = List.length (List.filter p all) in
  let attempted = List.length all + List.fold_left (fun acc cl -> acc + cl.logins) 0 clients in
  let op_failures = count (fun r -> not r.ok) in
  let login_failures = List.fold_left (fun acc cl -> acc + cl.login_failed) 0 clients in
  let failed = op_failures + login_failures + rs.mismatches + lost + if dumps_agree then 0 else 1 in
  let correct = failed = 0 in
  List.iter (fun cl -> List.iter prerr_endline (List.filteri (fun i _ -> i < 5) cl.failures)) clients;
  (* latency samples: timed reads and writes, by rank *)
  let lat kind =
    Pct.sorted_copy
      (Array.of_list (List.filter_map (fun r -> if r.timed && r.ok && r.op.kind = kind then Some r.lat_us else None) all))
  in
  let reads = lat W.Read and writes = lat W.Write in
  let acked = Array.length reads + Array.length writes in
  let window = win.t_end -. win.t_start in
  let error_rate = float_of_int failed /. float_of_int attempted in
  let p s q = Pct.rank s q in
  Printf.printf "# workload %s seed %d: %d ops attempted, %d failed (%d op errors, %d reply mismatches of %d compared, %d acked writes lost, dumps %s)\n"
    (W.name a.w) a.seed attempted failed op_failures rs.mismatches rs.compared lost
    (if dumps_agree then "agree" else "DIFFER");
  Printf.printf "# read samples %d (beyond p99: %d), write samples %d (beyond p99: %d); error_rate %.6f\n"
    (Array.length reads) (Pct.beyond reads (p reads 99.)) (Array.length writes)
    (Pct.beyond writes (p writes 99.)) error_rate;
  Printf.printf "# host: nproc %d, fsync %.1f us on the WAL filesystem, generator CPU %.1f%%\n" nproc
    fsync_us (100. *. gen_cpu /. window);
  print_endline
    "# the server is SIGKILLed after the window: the OS page cache survives, so the recovery check shows acked => logged, not media durability";
  (* The timed metrics are medians over [parts] equal parts of the
     window, each computed exactly from that part's raw samples: a stall
     of the shared host in one part does not move the result. *)
  let part_len = window /. float_of_int parts in
  let in_part k r =
    r.timed && r.ok && r.t_done >= win.t_start +. (float_of_int k *. part_len)
    && r.t_done < win.t_start +. (float_of_int (k + 1) *. part_len)
  in
  let part_samples =
    List.init parts (fun k ->
        let samples kind =
          Pct.sorted_copy
            (Array.of_list
               (List.filter_map (fun r -> if in_part k r && r.op.kind = kind then Some r.lat_us else None) all))
        in
        samples W.Read, samples W.Write)
  in
  let per_part_values f = List.map (fun (r, w) -> f r w) part_samples in
  let per_part f = Pct.median (per_part_values f) in
  let show name f =
    Printf.printf "# %s by part: %s\n" name
      (String.concat " " (List.map (Printf.sprintf "%.0f") (per_part_values f)))
  in
  (* the host's steal share: CPU time the hypervisor gave to other guests *)
  let steal (s0, t0) (s1, t1) = 100. *. float_of_int (s1 - s0) /. float_of_int (max 1 (t1 - t0)) in
  let rec pairs = function x :: (y :: _ as rest) -> (x, y) :: pairs rest | _ -> [] in
  let steal_pct = steal (List.hd marks) (List.nth marks parts) in
  Printf.printf "# host steal %% by part: %s\n"
    (String.concat " " (List.map (fun (x, y) -> Printf.sprintf "%.0f" (steal x y)) (pairs marks)));
  let throughput r w = float_of_int (Array.length r + Array.length w) /. part_len in
  show "throughput_rps" throughput;
  show "read_p50_us" (fun r _ -> p r 50.);
  show "read_p99_us" (fun r _ -> p r 99.);
  show "write_p50_us" (fun _ w -> p w 50.);
  show "write_p99_us" (fun _ w -> p w 99.);
  Printf.printf "# server memory: %.1f MiB after warm-up, %.1f MiB peak\n" warm_rss_mb peak_rss_mb;
  Printf.printf
    "# ungated: throughput_rps %.1f ops/s, read_p50_us %.1f us, read_p99_us %.1f us, write_p50_us %.1f us, write_p99_us %.1f us, error_rate %.6f ratio, recover_s %.4f s, server.peak_rss_mb %.1f MiB\n"
    (per_part throughput) (per_part (fun r _ -> p r 50.)) (per_part (fun r _ -> p r 99.))
    (per_part (fun _ w -> p w 50.)) (per_part (fun _ w -> p w 99.)) error_rate recover_s peak_rss_mb;
  let metrics =
    if not a.trace then [ "setup_s", "s", setup_s; "server_rss_mb", "MiB", warm_rss_mb ]
    else begin
      let sp = Option.get spans in
      List.iter (fun cl -> Trace.merge sp cl.spans) clients;
      let summary = Trace.summary sp in
      let span_file = Filename.concat (Filename.dirname a.work_dir) (Printf.sprintf "spans-%s.jsonl" (W.name a.w)) in
      Trace.write_jsonl sp span_file;
      Printf.printf "# spans written to %s; per span name: count, mean us, mean self us\n" span_file;
      List.iter
        (fun (name, (n, total, self)) ->
          Printf.printf "#   %-28s %8d %10.2f %10.2f\n" name n (total /. float n *. 1e6) (self /. float n *. 1e6))
        summary;
      (* pair timed ops with the server's recorded execution latency;
         client 0 drained the recorder for both clients *)
      let events = List.sort (fun x y -> compare x.e_seq y.e_seq) (List.hd clients).events in
      let recorded = Hashtbl.create 4096 in
      List.iter (fun e -> Hashtbl.replace recorded (e.e_session, e.e_request) e) events;
      let paired =
        List.filter_map
          (fun r ->
            if r.timed && r.ok && r.op.kind <> W.Checkpoint then
              Option.map (fun e -> r, e) (Hashtbl.find_opt recorded (r.session, r.request))
            else None)
          all
      in
      let mean_of f = Pct.mean (List.map f paired) in
      let exec_us = mean_of (fun (_, e) -> e.e_latency_s *. 1e6) in
      let outside_us = mean_of (fun (r, e) -> r.lat_us -. (e.e_latency_s *. 1e6)) in
      (* read runs: consecutive reads of one batch, in the recorder's order *)
      let kind_of = Hashtbl.create 4096 in
      List.iter (fun r -> Hashtbl.replace kind_of (r.session, r.request) r.op.kind) all;
      let runs, run_total, _ =
        List.fold_left
          (fun (runs, total, cur) e ->
            match Hashtbl.find_opt kind_of (e.e_session, e.e_request) with
            | Some W.Read when cur = Some e.e_batch && e.e_batch <> 0 -> runs, total + 1, cur
            | Some W.Read -> runs + 1, total + 1, Some e.e_batch
            | _ -> runs, total, None)
          (0, 0, None) events
      in
      let d = delta in
      let c = Statsjson.counter d in
      let ratio x y = if y > 0. then x /. y else 0. in
      let scanned = Statsjson.counters_matching d ~prefix:"mbds." ~suffix:".scanned" in
      let imbalance =
        match scanned with
        | [] -> 0.
        | l -> ratio (List.fold_left Float.max 0. l) (Pct.mean l)
      in
      let window_writes = float_of_int (Array.length writes) in
      let user_bytes = float_of_int (List.fold_left (fun acc r -> if r.ok then acc + r.user_bytes else acc) 0 all) in
      let ckpts = List.filter (fun r -> r.op.kind = W.Checkpoint && r.ok) all in
      let reclaimed = float_of_int (List.fold_left (fun acc r -> acc + r.ckpt_reclaimed) 0 ckpts) in
      let traced_ops t = float_of_int (count (fun r -> r.timed && r.ok && r.op.kind <> W.Checkpoint && r.traced_slice = t)) in
      let rps_traced = traced_ops true and rps_plain = traced_ops false in
      let hist_us n = Statsjson.hist_mean d n *. 1e6 in
      [ "throughput_rps", "ops/s", per_part throughput;
        "read_p50_us", "us", per_part (fun r _ -> p r 50.);
        "read_p99_us", "us", per_part (fun r _ -> p r 99.);
        "write_p50_us", "us", per_part (fun _ w -> p w 50.);
        "write_p99_us", "us", per_part (fun _ w -> p w 99.);
        "recover_s", "s", recover_s;
        "server.peak_rss_mb", "MiB", peak_rss_mb;
        "error_rate", "ratio", error_rate;
        "client.read_samples", "count", float_of_int (Array.length reads);
        "client.read_beyond_p99", "count", float_of_int (Pct.beyond reads (p reads 99.));
        "client.write_samples", "count", window_writes;
        "client.write_beyond_p99", "count", float_of_int (Pct.beyond writes (p writes 99.));
        "wire.req_bytes", "B/op", ratio rs.req_bytes (float_of_int rs.codec_ops);
        "wire.resp_bytes", "B/op", ratio rs.resp_bytes (float_of_int rs.codec_ops);
        "wire.codec_us", "us", mean_span summary "wire.codec";
        "client.outside_server_us", "us", outside_us;
        "server.exec_us", "us", exec_us;
        "server.wait_us", "us", outside_us -. ping_us;
        "server.batch_size", "jobs", Statsjson.hist_mean d "server.batch_size";
        "server.read_run_len", "ops", ratio (float_of_int run_total) (float_of_int runs);
        "server.rejected_total", "count", c "server.rejected_total";
        "server.shed_total", "count", c "server.shed_total";
        "stmt_cache.hit_ratio", "ratio", ratio (c "stmt_cache.hit") (c "stmt_cache.hit" +. c "stmt_cache.miss") ]
      @ List.map (fun l -> "lil.parse_us." ^ language_key l, "us", mean_span summary ("lil.parse." ^ language_key l)) all_languages
      @ List.map (fun l -> "mlds.submit_us." ^ language_key l, "us", mean_span summary ("mlds.submit." ^ language_key l)) all_languages
      @ [ "kernel.run_us", "us", mean_span summary "kernel.run";
          "abdm.rows_examined_per_row", "ratio", ratio rs.examined rs.rows;
          "abdm.plan.index_ratio", "ratio",
          ratio (c "abdm.plan.index") (c "abdm.plan.index" +. c "abdm.plan.file_scan" +. c "abdm.plan.store_scan");
          "abdm.plan.auto_index", "count", c "abdm.plan.auto_index";
          "mbds.broadcast_us", "us", mean_span summary "mbds.broadcast";
          "pool.queue_wait_us", "us", hist_us "pool.queue_wait_s";
          "pool.execute_us", "us", hist_us "pool.execute_s";
          "mbds.backend_imbalance", "ratio", imbalance;
          "kfs.format_us", "us", mean_span summary "kfs.format";
          "wal.append_us", "us", hist_us "wal.append_s";
          "wal.fsync_us", "us", hist_us "wal.fsync_s";
          "wal.fsyncs_per_write", "ratio", ratio (Statsjson.hist_count d "wal.fsync_s") window_writes;
          "wal.group_commit_size", "commits", Statsjson.hist_mean d "wal.group_commit_size";
          "wal.bytes_per_user_byte", "ratio", ratio (reclaimed +. float_of_int wal_bytes) user_bytes;
          "checkpoint.count", "count", c "server.checkpoint.total";
          "checkpoint.duration_ms", "ms", Statsjson.hist_mean d "server.checkpoint.duration_s" *. 1e3;
          "checkpoint.reclaimed_bytes", "B", ratio reclaimed (float_of_int (List.length ckpts));
          "recover.frames_per_s", "frames/s", ratio (float_of_int frames) replay_s;
          "proc.server_cpu_ms_per_kop", "ms/kop", ratio (server_cpu *. 1e3) (float_of_int acked /. 1e3);
          "proc.generator_cpu_pct", "%", 100. *. gen_cpu /. window;
          "host.fsync_us", "us", fsync_us;
          "host.nproc", "count", float_of_int nproc;
          "host.steal_pct", "%", steal_pct;
          "trace.overhead_pct", "%", 100. *. (1. -. ratio rps_traced rps_plain) ]
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (json_metrics metrics);
  exit (if correct then 0 else 1)

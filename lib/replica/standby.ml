(* The standby side: a warm replica that tails a primary's WAL stream.

   One background thread owns the connection: it dials the primary,
   introduces itself with [Wire.Repl_hello], then leaves the RPC
   protocol for good — the socket carries [Protocol] messages from then
   on. Every received chunk is made durable in the standby's {e own}
   log, then queued for apply to the live kernel via closures injected
   onto the server executor (so replication apply serializes with the
   read-only queries the standby serves), and only then acknowledged
   (the primary's "confirmed on the standby" means durable here): an
   ack that never makes it back merely re-teaches the primary our
   position on reconnect, whereas acking ahead of the apply queue could
   lose an acked-durable suffix if the stream died in between.

   Local state on disk, beside the log at [wal_path]:
     wal_path            raw frames, verbatim from the primary, in the
                         standby's own coordinates (starts at byte 0)
     wal_path ^ ".boot"  the bootstrap snapshot text
     wal_path ^ ".origin"  one line ["gen pos base"]: local byte [base]
                         corresponds to primary coordinate (gen, pos)
   The resume position after a restart is
   [pos + (local_valid_bytes - base)] — frame encoding is deterministic
   and chunks are appended verbatim, so local byte growth equals primary
   byte growth. Bootstrap rewrites all three in the order {e delete
   origin → write boot → truncate log → write origin}: a crash anywhere
   in the window leaves no origin (or one that predates the wipe is
   deleted first), which reads as "bootstrap again" — never as a stale
   mapping silently misplacing the stream.

   Promotion stops the stream, runs a finalizer on the executor (behind
   every already-injected apply, so nothing received is lost), appends a
   synthetic ABORT if the stream ended inside a transaction (otherwise a
   later replay of this log would buffer every post-promote frame into
   the unterminated transaction), and attaches the log to the database
   as a normal primary WAL. *)

type t = {
  system : Mlds.System.t;
  db : string;
  wal_path : string;
  host : string;
  port : int;
  inject : (unit -> unit) -> unit;
  mx : Mutex.t;
  mutable conn : Unix.file_descr option;
  mutable stopped : bool;
  mutable promoted : bool;
  mutable thread : Thread.t option;
  (* the primary-coordinate origin mapping; stream thread only (readers
     take mx) *)
  mutable have_origin : bool;
  mutable origin_gen : int;
  mutable origin_pos : int;
  mutable origin_base : int;
  mutable local_len : int;
  mutable log_fd : Unix.file_descr option;  (* the raw local log *)
  (* applier state: touched ONLY inside injected closures (executor) *)
  txn_buf : Mlds.Wal.entry list option ref;
  applied : int ref;
  apply_t0 : float;
}

let c_applied = Obs.Metrics.counter "repl.frames_applied"

let g_apply_rate = Obs.Metrics.gauge "repl.apply_frames_per_s"

let c_boots = Obs.Metrics.counter "repl.standby_bootstraps"

let boot_path t = t.wal_path ^ ".boot"

let origin_path t = t.wal_path ^ ".origin"

(* --- sidecar files -------------------------------------------------------- *)

let write_atomic path text =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (match
     output_string oc text;
     flush oc;
     Unix.fsync (Unix.descr_of_out_channel oc)
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    raise e);
  Sys.rename tmp path

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Some s

let read_origin t =
  match read_file (origin_path t) with
  | None -> None
  | Some text -> (
    try Scanf.sscanf text " %d %d %d" (fun g p b -> Some (g, p, b))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)

let write_origin t ~gen ~pos ~base =
  write_atomic (origin_path t) (Printf.sprintf "%d %d %d\n" gen pos base);
  t.have_origin <- true;
  t.origin_gen <- gen;
  t.origin_pos <- pos;
  t.origin_base <- base

(* the primary-coordinate position of the next byte this standby needs *)
let resume_pos t = t.origin_pos + (t.local_len - t.origin_base)

(* --- the local log (raw appends; [Wal.t] takes over at promote) ----------- *)

let open_local_log t =
  let fd = Unix.openfile t.wal_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  t.log_fd <- Some fd;
  fd

let close_local_log t =
  match t.log_fd with
  | None -> ()
  | Some fd ->
    t.log_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let local_fd t = match t.log_fd with Some fd -> fd | None -> open_local_log t

let append_local t data =
  let fd = local_fd t in
  ignore (Unix.lseek fd t.local_len Unix.SEEK_SET);
  let len = String.length data in
  let written = Unix.write_substring fd data 0 len in
  if written <> len then failwith "standby: short write to local log";
  Unix.fsync fd;
  t.local_len <- t.local_len + len

let truncate_local t =
  let fd = local_fd t in
  Unix.ftruncate fd 0;
  Unix.fsync fd;
  t.local_len <- 0

(* --- the applier (executor thread, via [inject]) -------------------------- *)

(* An open transaction at the end of a chunk stays in [txn_buf]: its
   COMMIT or ABORT is in a chunk that has not arrived yet. *)
let apply_entries t entries =
  match Mlds.System.kernel_of t.system t.db with
  | None -> ()
  | Some kernel ->
    let applied, _ = Mlds.Persist.apply_wal kernel ~txn:t.txn_buf entries in
    t.applied := !(t.applied) + applied;
    Obs.Metrics.incr ~by:applied c_applied;
    let dt = Obs.Clock.now_s () -. t.apply_t0 in
    if dt > 0. then
      Obs.Metrics.set_gauge g_apply_rate (float_of_int !(t.applied) /. dt)

let inject_restore t text entries =
  t.inject (fun () ->
      t.txn_buf := None;
      (match Mlds.Persist.restore_data t.system ~db:t.db ~text with
      | Ok () -> apply_entries t entries
      | Error e ->
        Printf.eprintf "mlds standby: bootstrap restore failed: %s\n%!" e))

(* --- the stream ----------------------------------------------------------- *)

exception Stream_lost of string

let connect t =
  let addrs =
    Unix.getaddrinfo t.host (string_of_int t.port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  in
  let rec try_addrs = function
    | [] -> raise (Stream_lost "no address for primary")
    | ai :: rest -> (
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
      match Unix.connect fd ai.Unix.ai_addr with
      | () -> fd
      | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        try_addrs rest)
  in
  try_addrs addrs

let send_hello t fd =
  let boot = not t.have_origin in
  let gen, pos = if boot then (0, 0) else (t.origin_gen, resume_pos t) in
  Server.Wire.write_frame fd
    (Server.Wire.encode_request
       {
         Server.Wire.version = Server.Wire.protocol_version;
         request_id = 0;
         session_id = 0;
         msg = Server.Wire.Repl_hello { gen; pos; boot };
       })

let ack t fd ~ts =
  let msg =
    Protocol.Ack { gen = t.origin_gen; pos = resume_pos t; ts }
  in
  Server.Wire.write_frame fd (Protocol.encode_up msg)

let handle_snapshot t fd ~gen ~pos ~ts ~text =
  (* crash-ordering: no point in the window leaves an origin that lies *)
  (try Sys.remove (origin_path t) with Sys_error _ -> ());
  t.have_origin <- false;
  write_atomic (boot_path t) text;
  truncate_local t;
  write_origin t ~gen ~pos ~base:0;
  Obs.Metrics.incr c_boots;
  inject_restore t text [];
  ack t fd ~ts

let handle_frames t fd ~gen ~start_pos ~ts ~data =
  if not t.have_origin then raise (Stream_lost "frames before any snapshot");
  (* a generation bump with a position jump is the primary remapping our
     stream across a checkpoint truncation: same bytes, new coordinates —
     re-anchor the origin at the current local length *)
  if gen > t.origin_gen then write_origin t ~gen ~pos:start_pos ~base:t.local_len;
  if gen <> t.origin_gen || start_pos <> resume_pos t then
    raise
      (Stream_lost
         (Printf.sprintf "stream discontinuity: got (%d,%d), expected (%d,%d)"
            gen start_pos t.origin_gen (resume_pos t)));
  (* Durable first, apply second, ack third. The ack is a socket write
     that can fail at any moment (the primary dying is the normal case);
     were it sent before the apply was queued, a failure in between
     would leave the chunk durable in the local log — counted by
     [resume_pos], so never re-shipped on reconnect — yet absent from
     the live kernel, and a later promote would lose an acked-durable
     suffix. Queued-behind-apply, a lost ack merely means the primary
     re-learns our position on reconnect. *)
  append_local t data;
  match Mlds.Wal.decode_frames data with
  | Some entries ->
    t.inject (fun () -> apply_entries t entries);
    ack t fd ~ts
  | None ->
    (* the primary ships only whole CRC-valid frames; garbage here means
       the stream or the disk is corrupt — force a full re-bootstrap *)
    (try Sys.remove (origin_path t) with Sys_error _ -> ());
    t.have_origin <- false;
    raise (Stream_lost "undecodable chunk: forcing bootstrap")

let handle_heartbeat t fd ~gen ~pos ~ts =
  if t.have_origin && gen > t.origin_gen then
    (* idle-stream remap across a truncation *)
    write_origin t ~gen ~pos ~base:t.local_len;
  if t.have_origin then ack t fd ~ts

let serve_connection t fd =
  send_hello t fd;
  let rec loop () =
    match Server.Wire.read_frame fd with
    | Ok None -> raise (Stream_lost "primary closed the stream")
    | Error e -> raise (Stream_lost e)
    | Ok (Some payload) ->
      (match Protocol.decode_down payload with
      | Ok (Protocol.Snapshot { gen; pos; ts; text }) ->
        handle_snapshot t fd ~gen ~pos ~ts ~text
      | Ok (Protocol.Frames { gen; start_pos; ts; data }) ->
        handle_frames t fd ~gen ~start_pos ~ts ~data
      | Ok (Protocol.Heartbeat { gen; pos; ts }) ->
        handle_heartbeat t fd ~gen ~pos ~ts
      | Error _ -> (
        (* not a replication message: most likely a Wire response from a
           primary that refused the handshake *)
        match Server.Wire.decode_response payload with
        | Ok { Server.Wire.msg = Server.Wire.Err (_, why); _ } ->
          raise (Stream_lost ("primary refused replication: " ^ why))
        | _ -> raise (Stream_lost "unintelligible frame from primary")));
      loop ()
  in
  loop ()

let stream_thread t =
  let backoff = ref 0.2 in
  let rec run () =
    let stop = Mutex.protect t.mx (fun () -> t.stopped) in
    if not stop then begin
      (match connect t with
      | exception _ ->
        Thread.delay !backoff;
        backoff := Stdlib.min 2.0 (!backoff *. 2.)
      | fd ->
        Mutex.protect t.mx (fun () ->
            if t.stopped then (try Unix.close fd with _ -> ())
            else t.conn <- Some fd);
        let live = Mutex.protect t.mx (fun () -> t.conn <> None) in
        if live then begin
          (match serve_connection t fd with
          | () -> ()
          | exception Stream_lost why ->
            if not (Mutex.protect t.mx (fun () -> t.stopped)) then
              Printf.eprintf "mlds standby: %s; reconnecting\n%!" why
          | exception _ -> ());
          Mutex.protect t.mx (fun () ->
              t.conn <- None);
          (try Unix.close fd with _ -> ());
          Thread.delay !backoff;
          backoff := Stdlib.min 2.0 (!backoff *. 2.)
        end);
      run ()
    end
  in
  run ()

(* --- lifecycle ------------------------------------------------------------ *)

let start ~system ~db ~wal_path ~host ~port ~inject () =
  let t =
    {
      system;
      db;
      wal_path;
      host;
      port;
      inject;
      mx = Mutex.create ();
      conn = None;
      stopped = false;
      promoted = false;
      thread = None;
      have_origin = false;
      origin_gen = 0;
      origin_pos = 0;
      origin_base = 0;
      local_len = 0;
      log_fd = None;
      txn_buf = ref None;
      applied = ref 0;
      apply_t0 = Obs.Clock.now_s ();
    }
  in
  ignore (open_local_log t);
  (* restart resume: a consistent (origin, boot, log-prefix) triple means
     snapshot + local replay + stream-from-where-we-left-off; anything
     else means fresh bootstrap. The replay seeds the transaction buffer
     instead of dropping an open tail — its COMMIT is still in flight on
     the primary side. *)
  (match read_origin t, read_file (boot_path t) with
  | Some (gen, pos, base), Some text ->
    let r = Mlds.Wal.recover ~trim:true t.wal_path in
    if r.Mlds.Wal.valid_bytes >= base && not r.Mlds.Wal.trim_failed then begin
      t.have_origin <- true;
      t.origin_gen <- gen;
      t.origin_pos <- pos;
      t.origin_base <- base;
      t.local_len <- r.Mlds.Wal.valid_bytes;
      inject_restore t text r.Mlds.Wal.entries
    end
    else (try Sys.remove (origin_path t) with Sys_error _ -> ())
  | _ -> ());
  t.thread <- Some (Thread.create stream_thread t);
  t

let stop_stream t =
  let th =
    Mutex.protect t.mx (fun () ->
        t.stopped <- true;
        (match t.conn with
        | Some fd -> (
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        | None -> ());
        t.thread)
  in
  (match th with Some th -> Thread.join th | None -> ());
  t.thread <- None

let frames_applied t = !(t.applied)

let bootstrapped t = t.have_origin

(* Promote to primary. Runs on the caller's thread (a connection reader
   or the signal loop) — never the executor, which the finalizer below
   must be free to run on. *)
let promote t =
  let already = Mutex.protect t.mx (fun () -> t.promoted) in
  if already then Error "already promoted"
  else begin
    Mutex.protect t.mx (fun () -> t.promoted <- true);
    stop_stream t;
    (* finalize behind every already-injected apply (the control lane is
       FIFO): seal any unterminated replicated transaction, then attach
       the log for normal primary-mode logging *)
    let fin_mx = Mutex.create () in
    let fin_cond = Condition.create () in
    let result = ref None in
    t.inject (fun () ->
        let r =
          try
            if !(t.txn_buf) <> None then begin
              t.txn_buf := None;
              append_local t
                (Bytes.to_string (Mlds.Wal.encode_frame Mlds.Wal.Abort))
            end;
            close_local_log t;
            match
              Mlds.System.attach_wal t.system ~db:t.db ~file:t.wal_path
            with
            | Ok _ ->
              Ok
                (Printf.sprintf
                   "promoted: %d frames applied; logging to %s (checkpoint \
                    soon)"
                   !(t.applied) t.wal_path)
            | Error e -> Error e
          with e -> Error (Printexc.to_string e)
        in
        Mutex.lock fin_mx;
        result := Some r;
        Condition.signal fin_cond;
        Mutex.unlock fin_mx);
    Mutex.lock fin_mx;
    while !result = None do
      Condition.wait fin_cond fin_mx
    done;
    Mutex.unlock fin_mx;
    match !result with Some r -> r | None -> assert false
  end

(* Stop without promoting (tests, shutdown). *)
let shutdown t =
  stop_stream t;
  close_local_log t

(* The MLDS server binary: one shared Mlds.System behind the TCP server
   tier (Server.Core). Clients are mlds_cli --connect and bench/loadgen.

   Lifecycle: bind, preload (unless --fresh), optionally attach a WAL to
   the preloaded database, print the "listening" line (the readiness
   signal CI waits for), then sleep until SIGINT/SIGTERM — on which the
   server drains gracefully: in-flight requests finish, sessions close
   (aborting open transactions), the WAL is checkpointed, and the process
   exits 0 after printing "shutdown complete". *)

let shutdown_requested = Atomic.make false

let promote_requested = Atomic.make false

let install_signal_handlers () =
  let request _ = Atomic.set shutdown_requested true in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle request) with _ -> ());
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle request) with _ -> ());
  (* SIGUSR1 = promote a standby (no-op on a primary); handled in the
     main wait loop, never in the signal context *)
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle (fun _ -> Atomic.set promote_requested true))
  with _ -> ()

(* "HOST:PORT" (the last colon splits, so a v6 literal still parses). *)
let parse_primary spec =
  match String.rindex_opt spec ':' with
  | None -> Error "expected HOST:PORT"
  | Some i -> (
    let host = String.sub spec 0 i in
    let port = String.sub spec (i + 1) (String.length spec - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && host <> "" -> Ok (host, p)
    | _ -> Error "expected HOST:PORT")

let preload t backends databases =
  (* 'university' always; with --databases N also the uni0..uniN-1
     family (same DDL and rows) — the multi-tenant shape loadgen
     --databases N logs into *)
  let names =
    "university"
    :: (if databases > 1 then
          List.init databases (fun i -> Printf.sprintf "uni%d" i)
        else [])
  in
  List.iter
    (fun name ->
      match
        Mlds.System.define_functional t ~name ~ddl:Daplex.University.ddl
          Daplex.University.rows
      with
      | Ok () -> ()
      | Error msg -> failwith msg)
    names;
  if backends > 0 then
    Printf.printf "mlds_server: loaded %s on an MBDS with %d backends\n%!"
      (String.concat ", " (List.map (Printf.sprintf "'%s'") names))
      backends
  else
    Printf.printf "mlds_server: loaded %s\n%!"
      (String.concat ", " (List.map (Printf.sprintf "'%s'") names))

let run host port backends queue_cap idle_timeout batch fresh
    wal_file checkpoint_file max_seconds telemetry_file telemetry_period
    slow_ms recorder_cap ckpt_every_bytes standby_of
    databases =
  install_signal_handlers ();
  let standby_primary =
    match standby_of with
    | None -> None
    | Some spec -> (
      match parse_primary spec with
      | Ok hp ->
        if wal_file = None then
          failwith "--standby-of needs --wal (the standby's own log path)";
        Some hp
      | Error e -> failwith ("bad --standby-of: " ^ e))
  in
  let t = Mlds.System.create ~backends () in
  if not fresh then preload t backends databases;
  let db = "university" in
  (match wal_file with
  | Some _ when standby_primary <> None ->
    (* the standby appends replicated frames to this path itself; the
       log is attached for normal logging only at promotion *)
    ()
  | Some file when not fresh ->
    (match Mlds.System.attach_wal t ~db ~file with
    | Ok _ -> Printf.printf "mlds_server: WAL on %s\n%!" file
    | Error msg -> failwith ("cannot attach WAL: " ^ msg))
  | Some _ -> prerr_endline "mlds_server: --wal ignored with --fresh"
  | None -> ());
  let on_drain () =
    match Mlds.System.wal_of t ~db with
    | None -> ()
    | Some wal ->
      let file =
        match checkpoint_file with
        | Some f -> f
        | None -> Mlds.Wal.path wal ^ ".snapshot"
      in
      (match Mlds.Persist.checkpoint t ~db ~file with
      | Ok () -> Printf.printf "mlds_server: checkpointed %s to %s\n%!" db file
      | Error msg ->
        Printf.eprintf "mlds_server: checkpoint failed: %s\n%!" msg)
  in
  let config =
    {
      Server.Core.default_config with
      host;
      port;
      queue_capacity = queue_cap;
      idle_timeout_s = idle_timeout;
      batch;
      recorder_capacity = recorder_cap;
      slow_threshold_s = slow_ms /. 1000.;
      checkpoint_path = checkpoint_file;
      checkpoint_every_bytes = ckpt_every_bytes;
    }
  in
  match Server.Core.create ~config ~on_drain t with
  | Error msg ->
    prerr_endline ("mlds_server: " ^ msg);
    1
  | Ok server ->
    (* Replication wiring: a primary with a WAL ships it; a standby
       streams, serves stale reads, and promotes on SIGUSR1/\promote. *)
    let ship, standby =
      match standby_primary with
      | Some (phost, pport) ->
        let st =
          Replica.Bridge.start_standby server ~system:t ~db
            ~wal_path:(Option.get wal_file) ~host:phost ~port:pport
        in
        Printf.printf
          "mlds_server: standby of %s:%d (read-only; SIGUSR1 or \\promote to \
           promote)\n\
           %!"
          phost pport;
        (None, Some st)
      | None -> (
        match Replica.Bridge.enable_primary server ~system:t ~db with
        | Some ship ->
          Printf.printf "mlds_server: replication enabled (WAL shipping)\n%!";
          (Some ship, None)
        | None -> (None, None))
    in
    (* the same promotion as \promote: the result is printed from the
       executor once the promotion is done *)
    let promote_now () =
      if Option.is_some standby then
        Server.Core.promote server (function
          | Ok summary -> Printf.printf "mlds_server: %s\n%!" summary
          | Error e -> Printf.eprintf "mlds_server: promote failed: %s\n%!" e)
    in
    (* Periodic delta-encoded metrics snapshots as JSONL, for soak-run
       analysis. The writer thread stops (and appends one final full
       snapshot) after the server has drained, so shutdown-time metrics
       land in the artifact. *)
    let telemetry =
      match telemetry_file with
      | None -> None
      | Some path ->
        let sink = Obs.Telemetry.create ~path in
        let stop = Atomic.make false in
        let period = if telemetry_period > 0. then telemetry_period else 1. in
        let thread =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                Obs.Telemetry.tick sink;
                let slept = ref 0. in
                while (not (Atomic.get stop)) && !slept < period do
                  Thread.delay 0.05;
                  slept := !slept +. 0.05
                done
              done)
            ()
        in
        Printf.printf "mlds_server: telemetry every %gs to %s\n%!" period path;
        Some (sink, stop, thread)
    in
    Printf.printf "mlds_server: listening on %s:%d\n%!" host
      (Server.Core.port server);
    let started = Unix.gettimeofday () in
    let expired () =
      max_seconds > 0. && Unix.gettimeofday () -. started > max_seconds
    in
    while not (Atomic.get shutdown_requested || expired ()) do
      Thread.delay 0.1;
      if Atomic.compare_and_set promote_requested true false then promote_now ()
    done;
    Printf.printf "mlds_server: draining (%d active sessions)\n%!"
      (Server.Core.session_count server);
    (* stop shipping before the drain checkpoint, so no standby is
       bootstrapped from a server that is going away; stop streaming
       before the system goes away *)
    (match ship with Some s -> Replica.Ship.shutdown s | None -> ());
    (match standby with Some st -> Replica.Standby.shutdown st | None -> ());
    Server.Core.shutdown server;
    (match telemetry with
    | None -> ()
    | Some (sink, stop, thread) ->
      Atomic.set stop true;
      Thread.join thread;
      Obs.Telemetry.close sink);
    Printf.printf "mlds_server: shutdown complete\n%!";
    0

open Cmdliner

let host_arg =
  let doc = "Bind address." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "Listen port (0 picks an ephemeral port)." in
  Arg.(value & opt int 7207 & info [ "port"; "p" ] ~docv:"PORT" ~doc)

let backends_arg =
  let doc = "Run the kernel as an MBDS with $(docv) backends (0 = single store)." in
  Arg.(value & opt int 0 & info [ "backends" ] ~docv:"N" ~doc)

let queue_arg =
  let doc =
    "Request-queue capacity: beyond this, requests are rejected with a \
     typed Overloaded response (admission control)."
  in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let idle_arg =
  let doc = "Reap sessions idle longer than $(docv) seconds." in
  Arg.(value & opt float 300. & info [ "idle-timeout" ] ~docv:"SECONDS" ~doc)

let batch_arg =
  let doc =
    "Batched executor: drain the request queue in batches, run each \
     batch's requests one after another, and group-commit the WAL (one \
     fsync per batch). false = the serial one-request-at-a-time executor."
  in
  Arg.(value & opt bool true & info [ "batch" ] ~docv:"BOOL" ~doc)

let fresh_arg =
  let doc = "Serve an empty system (no university preload)." in
  Arg.(value & flag & info [ "fresh" ] ~doc)

let wal_arg =
  let doc = "Attach a write-ahead log to the preloaded database." in
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"FILE" ~doc)

let checkpoint_arg =
  let doc =
    "Snapshot file written by checkpoints — online ones and the \
     shutdown one (default: <wal>.snapshot)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let ckpt_every_bytes_arg =
  let doc =
    "Take an online checkpoint (snapshot + WAL truncation, whole, \
     between two request batches) whenever the WAL reaches $(docv) \
     bytes; 0 disables the size trigger. Requests queue while a \
     checkpoint is written, for a time that grows with the database."
  in
  Arg.(
    value & opt int 0 & info [ "checkpoint-every-bytes" ] ~docv:"BYTES" ~doc)

let max_seconds_arg =
  let doc = "Exit (gracefully) after $(docv) seconds; 0 = run until signalled." in
  Arg.(value & opt float 0. & info [ "max-seconds" ] ~docv:"SECONDS" ~doc)

let telemetry_arg =
  let doc =
    "Append periodic delta-encoded metrics snapshots to $(docv) as JSON \
     lines (each changed instrument gets one line per tick, stamped with \
     ts and delta; a final full snapshot is written on shutdown)."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

let telemetry_period_arg =
  let doc = "Seconds between telemetry snapshots." in
  Arg.(
    value & opt float 1.0 & info [ "telemetry-period" ] ~docv:"SECONDS" ~doc)

let slow_ms_arg =
  let doc =
    "Slow-query threshold in milliseconds: requests at or over it are \
     captured into the flight recorder's slow-query log with their \
     statement and access plan (drain with the Tail opcode / mlds_top)."
  in
  Arg.(value & opt float 100. & info [ "slow-ms" ] ~docv:"MS" ~doc)

let standby_of_arg =
  let doc =
    "Run as a warm standby of the primary at $(docv): stream its WAL \
     into the local --wal file, serve read-only sessions (stale by the \
     replication lag), and promote to primary on SIGUSR1 or the \
     $(b,\\\\promote) command. Requires --wal."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "standby-of" ] ~docv:"HOST:PORT" ~doc)

let databases_arg =
  let doc =
    "Additionally preload $(docv) databases uni0..uni(N-1) (same schema \
     and rows as 'university') — a multi-tenant workload; 1 preloads only \
     'university'."
  in
  Arg.(value & opt int 1 & info [ "databases" ] ~docv:"N" ~doc)

let recorder_cap_arg =
  let doc =
    "Flight-recorder ring capacity (events kept for Tail); 0 disables \
     per-request recording."
  in
  Arg.(value & opt int 4096 & info [ "recorder-cap" ] ~docv:"N" ~doc)

let cmd =
  let doc = "The MLDS network server (multi-session tier over one kernel)" in
  Cmd.v
    (Cmd.info "mlds_server" ~version:"1.0.0" ~doc)
    Term.(
      const run $ host_arg $ port_arg $ backends_arg
      $ queue_arg $ idle_arg $ batch_arg $ fresh_arg $ wal_arg
      $ checkpoint_arg $ max_seconds_arg $ telemetry_arg
      $ telemetry_period_arg $ slow_ms_arg $ recorder_cap_arg
      $ ckpt_every_bytes_arg
      $ standby_of_arg $ databases_arg)

let () = exit (Cmd.eval' cmd)

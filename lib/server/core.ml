type config = {
  host : string;
  port : int;
  queue_capacity : int;
  idle_timeout_s : float;
  reap_every_s : float;
  send_timeout_s : float;
  batch : bool;
  max_batch : int;
  executor_hook : (unit -> unit) option;
  recorder_capacity : int;
  slow_log_capacity : int;
  slow_threshold_s : float;
  checkpoint_path : string option;
  checkpoint_every_bytes : int;
  checkpoint_every_s : float;
  checkpoint_slice_records : int;
  shed_p99_target_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    queue_capacity = 64;
    idle_timeout_s = 300.;
    reap_every_s = 5.;
    send_timeout_s = 10.;
    batch = true;
    max_batch = 32;
    executor_hook = None;
    (* the flight recorder: last 4096 requests, written in place under
       one mutex; 0 disables *)
    recorder_capacity = 4096;
    slow_log_capacity = 128;
    (* requests at or over this land in the slow-query log with their
       statement and captured plan *)
    slow_threshold_s = 0.100;
    (* online checkpointing: None = snapshot beside the WAL; both
       triggers default off (shutdown-only checkpointing, as before) *)
    checkpoint_path = None;
    checkpoint_every_bytes = 0;
    checkpoint_every_s = 0.;
    checkpoint_slice_records = 512;
    (* latency-target limiter: 0 disables shedding *)
    shed_p99_target_s = 0.;
  }

(* A reply's place in its connection's outbox. It leaves once it is
   computed and its gate is open — the WAL position it depends on is
   durable, or it depends on none. A failed covering fsync fails the
   gate and the reply leaves as an error instead. *)
type gate =
  | Waiting
  | Open
  | Failed of string

type slot = {
  s_frame : Wire.request Wire.frame;
  mutable s_session : int;
  mutable s_msg : Wire.response option;
  mutable s_gate : gate;
}

type conn = {
  c_id : int;
  fd : Unix.file_descr;
  peer : string;
  (* guards the socket, [alive] and [outbox]: replies are completed by
     the executor and the flusher threads *)
  write_mx : Mutex.t;
  mutable alive : bool;
  outbox : slot Queue.t;  (* executor-produced replies, arrival order *)
}

type job =
  (* the float is the arrival timestamp (decode time on the reader
     thread): queue-resident time for the limiter and honest reject /
     shed latencies in the flight recorder *)
  | J_request of conn * Wire.request Wire.frame * float
  | J_disconnect of conn
  | J_reap
  | J_task of (unit -> unit)
      (* an injected closure (the replication plane): standby applies,
         bootstrap snapshots. Always rides the control lane. *)

(* An online checkpoint in flight: begun between requests, advanced one
   bounded slice at a time between batches, finished (snapshot + WAL
   truncate) when the capture is drained. Waiters are \checkpoint
   clients whose reply is withheld until the checkpoint is durable. *)
type ckpt_state = {
  ck : Mlds.Persist.ckpt;
  ck_file : string;
  ck_started_s : float;
  ck_pos_before : int;  (* WAL position at capture *)
  mutable ck_waiters : (conn * Wire.request Wire.frame) list;
}

type t = {
  cfg : config;
  sys : Mlds.System.t;
  queue : job Bounded_queue.t;
  sessions : Sessions.t;  (* executor-owned *)
  (* one flusher per attached WAL, created when the log first owes a
     fsync; executor-owned *)
  mutable flushers : Flusher.t list;
  listener : Unix.file_descr;
  bound_port : int;
  conns : (int, conn) Hashtbl.t;
  conns_mx : Mutex.t;
  mutable next_conn : int;
  recorder : Obs.Recorder.t option;
  started_s : float;
  batch_seq : int Atomic.t;  (* current batch id, stamped into events *)
  draining : bool Atomic.t;
  stopped : bool Atomic.t;
  reaper_stop : bool Atomic.t;
  on_drain : unit -> unit;
  mutable executor_thread : Thread.t option;
  mutable accept_thread : Thread.t option;
  mutable reaper_thread : Thread.t option;
  shutdown_mx : Mutex.t;
  (* executor-owned rolling window of request sojourn times feeding the
     latency-target limiter *)
  lat_window : float array;
  mutable lat_count : int;
  (* serializes on_durable: every flusher and the checkpoint publish *)
  durable_mx : Mutex.t;
  (* executor-owned: the online-checkpoint state machine *)
  mutable ckpt : ckpt_state option;
  mutable last_ckpt_s : float;
  mutable last_ckpt_mark : int;  (* WAL position right after the last one *)
  (* --- the replication plane's hooks (all optional, all off by default) --- *)
  (* a warm standby refuses writes with Err Read_only until promoted *)
  read_only : bool Atomic.t;
  (* called right after each covering fsync and after every finished
     checkpoint: the shipper publishes the durable WAL position to its
     sender threads from here *)
  mutable on_durable : (unit -> unit) option;
  (* bracket around the checkpoint's WAL truncation (true = entering the
     rename window, false = truncation published): the shipper stops
     reading chunks while fenced, so a chunk read can never interleave
     with the rename and ship bytes from the wrong file *)
  mutable truncate_fence : (bool -> unit) option;
  (* a standby introduced itself: take the raw socket (the reader thread
     exits; the shipper owns the descriptor from here on) *)
  mutable repl_hello :
    (Unix.file_descr -> peer:string -> gen:int -> pos:int -> boot:bool -> unit)
    option;
  (* \promote / SIGUSR1: finish applying, enable writes *)
  mutable promote_hook : (unit -> (string, string) result) option;
}

(* --- metrics ------------------------------------------------------------- *)

let g_queue_depth = Obs.Metrics.gauge "server.queue_depth"

let c_rejected = Obs.Metrics.counter "server.rejected_total"

let c_requests = Obs.Metrics.counter "server.requests_total"

let c_disconnects = Obs.Metrics.counter "server.disconnects_total"

(* requests whose execution raised: a fault in the program, not in the
   request, answered as [Exec_error] *)
let c_internal = Obs.Metrics.counter "server.internal_errors"

(* one latency histogram per request opcode, made once *)
let h_opcodes =
  Array.map
    (fun name -> Obs.Metrics.histogram ("server.request." ^ name ^ "_s"))
    Wire.opcode_names

let h_opcode msg = h_opcodes.(Wire.opcode_index msg)

let h_batch =
  Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "server.batch_size"

let c_slow = Obs.Metrics.counter "server.slow_queries_total"

let c_shed = Obs.Metrics.counter "server.shed_total"

let c_ckpt = Obs.Metrics.counter "server.checkpoint.total"

let h_ckpt = Obs.Metrics.histogram "server.checkpoint.duration_s"

let g_ckpt_reclaimed = Obs.Metrics.gauge "server.checkpoint.reclaimed_bytes"

(* OCaml heap gauges, sampled only when Stats is served *)
let g_heap_words = Obs.Metrics.gauge "proc.heap_words"

let g_live_words = Obs.Metrics.gauge "proc.live_words"

let note_depth t =
  Obs.Metrics.set_gauge g_queue_depth
    (float_of_int (Bounded_queue.depth t.queue))

(* --- connection writes --------------------------------------------------- *)

(* A failed write just marks the connection dead; its reader observes
   the broken socket and triggers the normal disconnect path. The caller
   holds [write_mx]. *)
let write_locked conn (frame : Wire.response Wire.frame) =
  try
    if conn.alive then Wire.write_frame conn.fd (Wire.encode_response frame)
  with _ -> conn.alive <- false

let frame_to (req : 'a Wire.frame) ~session_id msg =
  {
    Wire.version = Wire.protocol_version;
    request_id = req.Wire.request_id;
    session_id;
    msg;
  }

let send conn frame =
  Mutex.protect conn.write_mx (fun () -> write_locked conn frame)

(* A reply that bypasses the outbox: reader-thread answers (Pong,
   Overloaded, Shutting_down, Tail), telemetry and checkpoint replies. *)
let reply conn (req : 'a Wire.frame) msg =
  send conn (frame_to req ~session_id:req.Wire.session_id msg)

(* Send every reply at the head of the outbox that may leave — so a
   connection's replies go out in arrival order, each once its gate
   opens. A failed gate turns a success into an error: the reply may
   show, or confirm, a write that is not durable. *)
let rec flush_outbox conn =
  match Queue.peek_opt conn.outbox with
  | Some { s_msg = Some msg; s_gate = (Open | Failed _) as gate; s_frame; s_session }
    ->
    ignore (Queue.pop conn.outbox);
    let msg =
      match gate, msg with
      | Failed why, (Wire.Output _ | Wire.Logged_in _ | Wire.Goodbye) ->
        Wire.Err (Wire.Exec_error, why)
      | _ -> msg
    in
    write_locked conn (frame_to s_frame ~session_id:s_session msg);
    flush_outbox conn
  | Some _ | None -> ()

let update conn f =
  Mutex.protect conn.write_mx (fun () ->
      f ();
      flush_outbox conn)

(* Take the frame's place in the outbox — called by the executor in
   arrival order. [ready] is a reply that depends on no WAL. *)
let enqueue ?ready conn (frame : Wire.request Wire.frame) =
  let slot =
    {
      s_frame = frame;
      s_session = frame.Wire.session_id;
      s_msg = ready;
      s_gate = (if Option.is_none ready then Waiting else Open);
    }
  in
  update conn (fun () -> Queue.push slot conn.outbox);
  slot

let complete conn slot ~session msg =
  update conn (fun () ->
      slot.s_session <- session;
      slot.s_msg <- Some msg)

(* --- the flushers ---------------------------------------------------------- *)

let notify_durable t =
  match t.on_durable with
  | None -> ()
  | Some f -> Mutex.protect t.durable_mx (fun () -> try f () with _ -> ())

let flusher_of t wal = List.find_opt (fun f -> Flusher.wal f == wal) t.flushers

let flusher_for t wal =
  match flusher_of t wal with
  | Some f -> f
  | None ->
    let f = Flusher.create ~on_durable:(fun () -> notify_durable t) wal in
    t.flushers <- f :: t.flushers;
    f

(* The release rule. A reply depends on its session's database WAL up to
   the commit position right after it executed: everything the reply can
   show or confirm lies below it. It leaves once that position is
   durable. *)
let set_gate t conn slot db =
  match Option.bind db (fun db -> Mlds.System.wal_of t.sys ~db) with
  | None -> update conn (fun () -> slot.s_gate <- Open)
  | Some wal ->
    Flusher.when_durable (flusher_for t wal)
      (Mlds.Wal.committed_position wal)
      (fun failed ->
        update conn (fun () ->
            slot.s_gate <-
              (match failed with None -> Open | Some why -> Failed why)))

(* --- the executor -------------------------------------------------------- *)

let ack = function
  | Wire.Begin_txn -> "transaction started"
  | Wire.Commit_txn -> "transaction committed"
  | Wire.Abort_txn -> "transaction aborted"
  | _ -> "ok"

let response_of_handle_error (e : Mlds.System.handle_error) =
  let text = Mlds.System.handle_error_to_string e in
  match e with
  | Mlds.System.H_parse msg -> Wire.Err (Wire.Parse_error, msg)
  | Mlds.System.H_busy _ -> Wire.Err (Wire.Txn_busy, text)
  | Mlds.System.H_closed -> Wire.Err (Wire.Bad_session, text)
  | Mlds.System.H_no_txn | Mlds.System.H_txn_open ->
    Wire.Err (Wire.Exec_error, text)

let live_conns t =
  Mutex.protect t.conns_mx (fun () -> Hashtbl.length t.conns)

(* --- the flight recorder -------------------------------------------------- *)

let outcome_of_msg = function
  | Wire.Err (kind, _) -> Obs.Recorder.O_error (Wire.err_kind_name kind)
  | Wire.Overloaded -> Obs.Recorder.O_rejected
  | Wire.Logged_in _ | Wire.Output _ | Wire.Pong | Wire.Goodbye ->
    Obs.Recorder.O_ok

(* Every completed request becomes one ring event, written in place
   under the recorder's mutex, so this is safe from the executor and the
   reader threads (the Overloaded
   path). [?outcome] overrides the msg-derived outcome — the shed path
   sends [Overloaded] but records [O_shed] so dashboards can tell
   limiter drops from queue-full rejects. *)
let record_event ?outcome t (frame : Wire.request Wire.frame) ~session
    ~language ~latency_s ~msg ~batch =
  match t.recorder with
  | None -> ()
  | Some r ->
    ignore
      (Obs.Recorder.record r ~ts_s:(Obs.Clock.now_s ()) ~session
         ~request_id:frame.Wire.request_id ~language
         ~opcode:(Wire.opcode_name frame.Wire.msg)
         ~latency_s
         ~bytes_in:(Wire.request_size frame.Wire.msg)
         ~bytes_out:(Wire.response_size msg)
         ~outcome:
           (match outcome with Some o -> o | None -> outcome_of_msg msg)
         ~batch)

(* Requests at or over the threshold additionally land in the slow-query
   log, with the statement text and the planner's rendering captured
   right away — [explain] is pure, so re-planning here cannot perturb
   the data path, and the plan reflects the index directory as the slow
   request saw it. *)
let capture_slow t (frame : Wire.request Wire.frame) ~session ~language
    ~latency_s ~handle =
  match t.recorder with
  | None -> ()
  | Some r when latency_s < Obs.Recorder.slow_threshold_s r -> ()
  | Some r ->
    let opcode = Wire.opcode_name frame.Wire.msg in
    let statement, plan =
      match frame.Wire.msg, handle with
      | (Wire.Submit src | Wire.Explain src), Some h ->
        ( src,
          (match Mlds.System.explain_handle h src with
          | Ok p -> p
          | Error e ->
            "(plan unavailable: " ^ Mlds.System.handle_error_to_string e ^ ")")
        )
      | (Wire.Submit src | Wire.Explain src), None ->
        (src, "(plan unavailable: no session)")
      | _ -> ("(" ^ opcode ^ ")", "(nothing to explain)")
    in
    Obs.Metrics.incr c_slow;
    ignore
      (Obs.Recorder.record_slow r ~ts_s:(Obs.Clock.now_s ()) ~session
         ~request_id:frame.Wire.request_id ~language ~opcode ~latency_s
         ~statement ~plan
         ~span:
           (Printf.sprintf "server.request{opcode=%s,request=%d}" opcode
              frame.Wire.request_id))

(* --- telemetry responses (Stats / Tail) ----------------------------------- *)

let summary_json (s : Sessions.summary) =
  Printf.sprintf
    "{\"id\":%d,\"conn\":%d,\"user\":%s,\"language\":%s,\"db\":%s,\"idle_s\":%s}"
    s.Sessions.sum_id s.Sessions.sum_conn
    (Obs.Json.quote s.Sessions.sum_user)
    (Obs.Json.quote s.Sessions.sum_language)
    (Obs.Json.quote s.Sessions.sum_db)
    (Obs.Json.number s.Sessions.sum_idle_s)

(* Runs on the executor: it reads the executor-owned session table. *)
let stats_response t =
  let now = Obs.Clock.now_s () in
  let gc = Gc.quick_stat () in
  Obs.Metrics.set_gauge g_heap_words (float_of_int gc.Gc.heap_words);
  Obs.Metrics.set_gauge g_live_words (float_of_int gc.Gc.live_words);
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  add
    (Printf.sprintf "{\"now\":%s,\"uptime_s\":%s,\"pid\":%d,"
       (Obs.Json.number now)
       (Obs.Json.number (now -. t.started_s))
       (Unix.getpid ()));
  add
    (Printf.sprintf
       "\"sessions\":%d,\"connections\":%d,\"queue_depth\":%d,\"queue_capacity\":%d,\"batch\":%b,\"max_batch\":%d,"
       (Sessions.active t.sessions) (live_conns t)
       (Bounded_queue.depth t.queue) t.cfg.queue_capacity t.cfg.batch
       t.cfg.max_batch);
  (match t.recorder with
  | Some r ->
    add
      (Printf.sprintf
         "\"recorder\":{\"capacity\":%d,\"next_seq\":%d,\"slow_next_seq\":%d,\"slow_threshold_s\":%s},"
         (Obs.Recorder.capacity r) (Obs.Recorder.next_seq r)
         (Obs.Recorder.slow_next_seq r)
         (Obs.Json.number (Obs.Recorder.slow_threshold_s r)))
  | None -> add "\"recorder\":null,");
  add "\"session_list\":[";
  add
    (String.concat ","
       (List.map summary_json (Sessions.summaries t.sessions ~now)));
  add "],\"metrics\":[";
  add
    (String.concat ","
       (List.map (fun s -> Obs.Export.sample_json s) (Obs.Metrics.snapshot ())));
  add "]}";
  Wire.Output (Buffer.contents b)

let tail_response t ~cursor ~slow_cursor ~max_events =
  match t.recorder with
  | None ->
    Wire.Err
      (Wire.Exec_error, "flight recorder disabled (recorder_capacity = 0)")
  | Some r ->
    let max_events =
      if max_events <= 0 then 512 else Stdlib.min max_events 4096
    in
    let events, cursor', dropped =
      Obs.Recorder.events_since r ~cursor ~max_events
    in
    let slow, slow_cursor', slow_dropped =
      Obs.Recorder.slow_since r ~cursor:slow_cursor
        ~max_events:(Stdlib.min max_events 256)
    in
    Wire.Output
      (Printf.sprintf
         "{\"cursor\":%d,\"dropped\":%d,\"events\":[%s],\"slow_cursor\":%d,\"slow_dropped\":%d,\"slow\":[%s]}"
         cursor' dropped
         (String.concat "," (List.map Obs.Recorder.event_json events))
         slow_cursor' slow_dropped
         (String.concat "," (List.map Obs.Recorder.slow_json slow)))
(* Compute (never send) the response to one frame, on the executor. Also
   returns the database of the session the request ran under: its WAL
   gates the reply. *)
let compute_response t conn (frame : Wire.request Wire.frame) =
  let opcode = Wire.opcode_name frame.Wire.msg in
  Obs.Metrics.incr c_requests;
  let t0 = Obs.Clock.now_s () in
  let session_id = ref frame.Wire.session_id in
  (* the handle the request ran against, kept for the flight recorder
     (language tag), the slow-query log (plan capture) and the gate *)
  let used_handle = ref None in
  let msg =
    Obs.Span.with_span "server.request"
      ~attrs:(fun () ->
        [
          "session", string_of_int frame.Wire.session_id;
          "opcode", opcode;
          "request", string_of_int frame.Wire.request_id;
          "peer", conn.peer;
        ])
      (fun () ->
        match frame.Wire.msg with
        | Wire.Login { user; language; db } ->
          (match
             Sessions.login t.sessions ~conn:conn.c_id ~user ~language ~db
           with
          | Ok entry ->
            session_id := entry.Sessions.id;
            used_handle := Some entry.Sessions.handle;
            Wire.Logged_in entry.Sessions.id
          | Error msg -> Wire.Err (Wire.Exec_error, msg))
        | Wire.Ping -> Wire.Pong
        | Wire.Bye -> Wire.Goodbye
        (* unreachable (the batch walk answers telemetry and checkpoint
           ops itself), but kept total for safety *)
        | Wire.Stats -> stats_response t
        | Wire.Tail { cursor; slow_cursor; max_events } ->
          tail_response t ~cursor ~slow_cursor ~max_events
        | Wire.Checkpoint ->
          Wire.Err (Wire.Bad_request, "checkpoint rides the control lane")
        (* both are answered on the connection's reader thread; defensive *)
        | Wire.Promote ->
          Wire.Err (Wire.Bad_request, "not a standby: nothing to promote")
        | Wire.Repl_hello _ ->
          Wire.Err (Wire.Bad_request, "replication not enabled on this server")
        | Wire.Submit _ | Wire.Explain _ | Wire.Begin_txn | Wire.Commit_txn
        | Wire.Abort_txn | Wire.Logout ->
          (match Sessions.find t.sessions frame.Wire.session_id with
          | None ->
            Wire.Err
              ( Wire.Bad_session,
                Printf.sprintf "unknown session %d" frame.Wire.session_id )
          (* Sessions are connection-scoped: ids are guessable small
             integers, so a frame naming a session opened on another
             connection is a hijack attempt, not a valid request. The
             reply deliberately matches the unknown-session error — it
             must not confirm that the id exists elsewhere. *)
          | Some entry when entry.Sessions.conn <> conn.c_id ->
            Wire.Err
              ( Wire.Bad_session,
                Printf.sprintf "unknown session %d" frame.Wire.session_id )
          | Some entry ->
            Sessions.touch entry;
            let handle = entry.Sessions.handle in
            used_handle := Some handle;
            (* the standby gate: reads flow (stale by the replication
               lag), anything that would mutate is refused with a typed
               error the client surfaces. Explain stays allowed (pure). *)
            let refused_read_only =
              Atomic.get t.read_only
              &&
              match frame.Wire.msg with
              | Wire.Submit src ->
                (match Mlds.System.classify_handle handle src with
                | `Read -> false
                | `Write -> true)
              | Wire.Begin_txn | Wire.Commit_txn | Wire.Abort_txn -> true
              | _ -> false
            in
            if refused_read_only then
              Wire.Err
                ( Wire.Read_only,
                  "standby is read-only: writes go to the primary (or \
                   promote this standby first)" )
            else (match frame.Wire.msg with
            | Wire.Submit src ->
              (match Mlds.System.submit_handle handle src with
              | Ok out -> Wire.Output out
              | Error e -> response_of_handle_error e)
            | Wire.Explain src ->
              (match Mlds.System.explain_handle handle src with
              | Ok out -> Wire.Output out
              | Error e -> response_of_handle_error e)
            | Wire.Begin_txn ->
              (match Mlds.System.begin_txn handle with
              | Ok () -> Wire.Output (ack Wire.Begin_txn)
              | Error e -> response_of_handle_error e)
            | Wire.Commit_txn ->
              (match Mlds.System.commit_txn handle with
              | Ok () -> Wire.Output (ack Wire.Commit_txn)
              | Error e -> response_of_handle_error e)
            | Wire.Abort_txn ->
              (match Mlds.System.abort_txn handle with
              | Ok () -> Wire.Output (ack Wire.Abort_txn)
              | Error e -> response_of_handle_error e)
            | Wire.Logout ->
              Sessions.close t.sessions entry;
              Wire.Goodbye
            | Wire.Login _ | Wire.Ping | Wire.Bye | Wire.Stats | Wire.Tail _
            | Wire.Checkpoint | Wire.Promote | Wire.Repl_hello _ ->
              assert false)))
  in
  let dt = Obs.Clock.since t0 in
  Obs.Metrics.observe (h_opcode frame.Wire.msg) dt;
  let language =
    match !used_handle with
    | Some h -> Mlds.System.language_to_string (Mlds.System.handle_language h)
    | None -> "-"
  in
  let batch = Atomic.get t.batch_seq in
  record_event t frame ~session:!session_id ~language ~latency_s:dt ~msg ~batch;
  capture_slow t frame ~session:!session_id ~language ~latency_s:dt
    ~handle:!used_handle;
  !session_id, Option.map Mlds.System.handle_db !used_handle, msg

(* Killing a connection must be atomic with respect to [write_locked]'s
   check-then-write: take [write_mx] so no writer can pass the [alive]
   check and then write to a closed (possibly reused) descriptor. *)
let kill_conn conn =
  Mutex.protect conn.write_mx (fun () ->
      conn.alive <- false;
      try Unix.close conn.fd with _ -> ())

let close_conn_fd t conn =
  let mine =
    Mutex.protect t.conns_mx (fun () ->
        let mine = Hashtbl.mem t.conns conn.c_id in
        if mine then Hashtbl.remove t.conns conn.c_id;
        mine)
  in
  if mine then kill_conn conn;
  mine

(* Answer a telemetry op (Stats/Tail) in place, outside the outbox and
   never gated on a fsync. Stats arrives on the control lane (it reads
   the executor-owned session table); Tail touches only the recorder
   ring, so the connection's own reader thread calls this directly. In
   both cases polling cannot queue behind user traffic — and may
   therefore overtake data replies on the same connection; dashboards
   use a dedicated connection. *)
let answer_control t conn (frame : Wire.request Wire.frame) =
  let opcode = Wire.opcode_name frame.Wire.msg in
  Obs.Metrics.incr c_requests;
  let t0 = Obs.Clock.now_s () in
  let msg =
    Obs.Span.with_span "server.request"
      ~attrs:(fun () ->
        [
          "session", string_of_int frame.Wire.session_id;
          "opcode", opcode;
          "request", string_of_int frame.Wire.request_id;
          "peer", conn.peer;
        ])
      (fun () ->
        match frame.Wire.msg with
        | Wire.Stats -> stats_response t
        | Wire.Tail { cursor; slow_cursor; max_events } ->
          tail_response t ~cursor ~slow_cursor ~max_events
        | _ -> Wire.Err (Wire.Bad_request, "not a telemetry opcode"))
  in
  let dt = Obs.Clock.since t0 in
  Obs.Metrics.observe (h_opcode frame.Wire.msg) dt;
  record_event t frame ~session:frame.Wire.session_id ~language:"-"
    ~latency_s:dt ~msg ~batch:(Atomic.get t.batch_seq);
  reply conn frame msg

(* --- the latency-target limiter ------------------------------------------- *)

(* Executor-owned rolling window of request sojourn times (decode on the
   reader thread to pickup by the batch walk). Under overload the queue
   wait dominates end-to-end latency, so its p99 is the shed signal. *)
let note_latency t sojourn_s =
  t.lat_window.(t.lat_count mod Array.length t.lat_window) <- sojourn_s;
  t.lat_count <- t.lat_count + 1

let rolling_p99 t =
  let n = Stdlib.min t.lat_count (Array.length t.lat_window) in
  if n = 0 then 0.
  else begin
    let a = Array.sub t.lat_window 0 n in
    Array.sort compare a;
    a.(99 * (n - 1) / 100)
  end

(* Shed only when the window is warm, its p99 is over target, AND this
   request has itself been resident longer than half the target. The
   lateness gate keeps the limiter live: fresh requests still complete,
   refresh the window, and bring the p99 back down — a stale high window
   alone can never wedge the server into shedding everything. *)
let should_shed t ~sojourn =
  let target = t.cfg.shed_p99_target_s in
  target > 0.
  && t.lat_count >= 16
  && sojourn > 0.5 *. target
  && rolling_p99 t > target

(* --- online checkpointing -------------------------------------------------- *)

(* The database this server checkpoints: the first one with an attached
   WAL (the server binary attaches exactly one). *)
let checkpoint_target t =
  List.find_map
    (fun (db, _model) ->
      match Mlds.System.wal_of t.sys ~db with
      | Some wal -> Some (db, wal)
      | None -> None)
    (Mlds.System.databases t.sys)

(* Runs on the executor at a serial point: the capture (record list,
   DDL, WAL generation/position stamp) is a consistent cut — every
   mutation executed before this instant is inside it, every one after
   lands in the WAL tail beyond the stamped position and survives the
   truncate. *)
let start_checkpoint t ~waiter =
  match checkpoint_target t with
  | None ->
    (match waiter with
    | Some (conn, frame) ->
      let msg =
        Wire.Err (Wire.Exec_error, "no WAL attached: nothing to checkpoint")
      in
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:0. ~msg ~batch:(Atomic.get t.batch_seq);
      reply conn frame msg
    | None -> ())
  | Some (db, wal) ->
    let file =
      match t.cfg.checkpoint_path with
      | Some f -> f
      | None -> Mlds.Wal.path wal ^ ".snapshot"
    in
    (match Mlds.Persist.checkpoint_begin t.sys ~db ~file with
    | Ok ck ->
      t.ckpt <-
        Some
          {
            ck;
            ck_file = file;
            ck_started_s = Obs.Clock.now_s ();
            ck_pos_before = Mlds.Wal.position wal;
            ck_waiters = (match waiter with Some w -> [ w ] | None -> []);
          }
    | Error why ->
      (match waiter with
      | Some (conn, frame) ->
        let msg = Wire.Err (Wire.Exec_error, "checkpoint failed: " ^ why) in
        record_event t frame ~session:frame.Wire.session_id ~language:"-"
          ~latency_s:0. ~msg ~batch:(Atomic.get t.batch_seq);
        reply conn frame msg
      | None -> ()))

let finish_checkpoint t st =
  (* entering the truncation window: the shipper must not read WAL chunks
     while the file may be renamed under it *)
  (match t.truncate_fence with
  | Some f -> (try f true with _ -> ())
  | None -> ());
  (* under the durability-hook mutex: another log's flusher publishing
     meanwhile must not read this log's generation and synced position
     half-way through the truncation *)
  let result =
    Mutex.protect t.durable_mx (fun () -> Mlds.Persist.checkpoint_finish st.ck)
  in
  let now = Obs.Clock.now_s () in
  let dur = now -. st.ck_started_s in
  t.ckpt <- None;
  t.last_ckpt_s <- now;
  let reclaimed, msg =
    match result with
    | Ok () ->
      let after =
        match checkpoint_target t with
        | Some (_, wal) ->
          t.last_ckpt_mark <- Mlds.Wal.position wal;
          Mlds.Wal.position wal
        | None -> 0
      in
      let reclaimed = Stdlib.max 0 (st.ck_pos_before - after) in
      Obs.Metrics.incr c_ckpt;
      Obs.Metrics.observe h_ckpt dur;
      Obs.Metrics.set_gauge g_ckpt_reclaimed (float_of_int reclaimed);
      ( reclaimed,
        Wire.Output
          (Printf.sprintf
             "checkpoint complete: %s (reclaimed %d WAL bytes in %.3fs)"
             st.ck_file reclaimed dur) )
    | Error why -> (0, Wire.Err (Wire.Exec_error, "checkpoint failed: " ^ why))
  in
  (* the checkpoint's own flight-recorder trace (auto-triggered ones have
     no requesting frame): opcode "checkpoint", bytes_out = reclaimed *)
  (match t.recorder with
  | Some r when st.ck_waiters = [] ->
    ignore
      (Obs.Recorder.record r ~ts_s:now ~session:0 ~request_id:0 ~language:"-"
         ~opcode:"checkpoint" ~latency_s:dur ~bytes_in:0 ~bytes_out:reclaimed
         ~outcome:
           (match result with
           | Ok () -> Obs.Recorder.O_ok
           | Error e -> Obs.Recorder.O_error e)
         ~batch:(Atomic.get t.batch_seq))
  | Some _ | None -> ());
  List.iter
    (fun (conn, frame) ->
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:dur ~msg ~batch:(Atomic.get t.batch_seq);
      reply conn frame msg)
    (List.rev st.ck_waiters);
  (* publish the post-truncation coordinates (new generation, remap
     entry) before lifting the fence, so an unfenced chunk read can only
     ever see a generation the shipper already knows about *)
  notify_durable t;
  match t.truncate_fence with
  | Some f -> (try f false with _ -> ())
  | None -> ()

let checkpoint_due t =
  (match t.ckpt with Some _ -> false | None -> true)
  && (not (Atomic.get t.draining))
  && (t.cfg.checkpoint_every_bytes > 0 || t.cfg.checkpoint_every_s > 0.)
  &&
  match checkpoint_target t with
  | None -> false
  | Some (_, wal) ->
    let pos = Mlds.Wal.position wal in
    let now = Obs.Clock.now_s () in
    (t.cfg.checkpoint_every_bytes > 0 && pos >= t.cfg.checkpoint_every_bytes)
    || t.cfg.checkpoint_every_s > 0.
       && now -. t.last_ckpt_s >= t.cfg.checkpoint_every_s
       && pos > t.last_ckpt_mark

(* A \checkpoint joins the in-flight checkpoint (if any) or starts one;
   either way its reply waits for checkpoint_finish. *)
let checkpoint_request t conn (frame : Wire.request Wire.frame) =
  if Atomic.get t.read_only then begin
    (* a standby's WAL belongs to the replication stream; truncating it
       out from under the receiver would corrupt the standby's notion of
       its own position *)
    let msg =
      Wire.Err (Wire.Read_only, "standby: checkpointing is the primary's job")
    in
    record_event t frame ~session:frame.Wire.session_id ~language:"-"
      ~latency_s:0. ~msg ~batch:(Atomic.get t.batch_seq);
    reply conn frame msg
  end
  else
    match t.ckpt with
    | Some st -> st.ck_waiters <- (conn, frame) :: st.ck_waiters
    | None -> start_checkpoint t ~waiter:(Some (conn, frame))

(* Advance the in-flight checkpoint one bounded slice between batches;
   capture drained ⇒ finish (snapshot rename + WAL truncate) once the
   log's flusher is idle, so no fsync is in flight on the WAL being
   truncated. *)
let checkpoint_step t =
  match t.ckpt with
  | None -> ()
  | Some st ->
    (match
       Mlds.Persist.checkpoint_slice st.ck
         ~max_records:(Stdlib.max 1 t.cfg.checkpoint_slice_records)
     with
    | `More _ -> ()
    | `Ready ->
      let flusher =
        Option.bind (checkpoint_target t) (fun (_, wal) -> flusher_of t wal)
      in
      Option.iter Flusher.drain flusher;
      finish_checkpoint t st;
      (* the truncated log's positions restart *)
      Option.iter Flusher.rebase flusher)

let drain_flushers t = List.iter Flusher.drain t.flushers

(* --- executing one batch ---------------------------------------------------- *)

(* Execute one batch: walk the jobs in arrival order and execute each at
   its arrival position — exactly what the serial executor does, one job
   at a time. Every reply takes its connection's outbox slot in arrival
   order and is gated by the release rule ({!set_gate}). The batch is
   bracketed by {!Mlds.System.wal_group_begin}/[wal_group_end]:
   commit-time fsyncs are deferred, and at batch end each log that owes a
   covering fsync hands its commit position to its flusher — the
   executor starts the next batch at once, and commits executed while
   that fsync is in flight queue for the following one. *)
let execute_batch t jobs =
  let batch = 1 + Atomic.fetch_and_add t.batch_seq 1 in
  Mlds.System.wal_group_begin t.sys;
  let walk job =
    (match t.cfg.executor_hook with Some hook -> hook () | None -> ());
    match job with
    | J_request (conn, ({ Wire.msg = Wire.Stats | Wire.Tail _; _ } as frame), _)
      ->
      answer_control t conn frame
    | J_request (conn, ({ Wire.msg = Wire.Checkpoint; _ } as frame), _) ->
      checkpoint_request t conn frame
    | J_task f -> (try f () with _ -> ())
    | J_request (conn, frame, arrival) ->
      let sojourn = Obs.Clock.now_s () -. arrival in
      note_latency t sojourn;
      let sheddable =
        match frame.Wire.msg with
        | Wire.Submit _ | Wire.Explain _ -> true
        | _ -> false  (* never shed login / txn control: tiny, stateful *)
      in
      if sheddable && should_shed t ~sojourn then begin
        (* the limiter: queue admission let it in, but the server is past
           its latency target and this request is already late — shed it
           with a typed Overloaded rather than make everyone later *)
        Obs.Metrics.incr c_shed;
        record_event t frame ~outcome:Obs.Recorder.O_shed
          ~session:frame.Wire.session_id ~language:"-" ~latency_s:sojourn
          ~msg:Wire.Overloaded ~batch;
        ignore (enqueue ~ready:Wire.Overloaded conn frame)
      end
      else begin
        let slot = enqueue conn frame in
        let session, db, msg =
          try compute_response t conn frame
          with exn ->
            Obs.Metrics.incr c_internal;
            ( frame.Wire.session_id,
              None,
              Wire.Err (Wire.Exec_error, Printexc.to_string exn) )
        in
        complete conn slot ~session msg;
        set_gate t conn slot db
      end
    | J_disconnect conn ->
      (* the disconnect contract: sessions die with their connection,
         aborting any transaction left open *)
      Sessions.close_conn t.sessions ~conn:conn.c_id;
      if close_conn_fd t conn then Obs.Metrics.incr c_disconnects
    | J_reap ->
      ignore
        (Sessions.reap_idle t.sessions ~now:(Unix.gettimeofday ())
           ~idle_timeout_s:t.cfg.idle_timeout_s)
  in
  List.iter walk jobs;
  Obs.Metrics.observe h_batch (float_of_int (List.length jobs));
  (* the batch's durability point, handed off *)
  List.iter
    (fun (wal, pos) -> Flusher.request (flusher_for t wal) pos)
    (Mlds.System.wal_group_end t.sys);
  (* the serial executor answers each request before taking the next *)
  if not t.cfg.batch then drain_flushers t

let maybe_start_checkpoint t =
  if checkpoint_due t then start_checkpoint t ~waiter:None

(* The executor: drain the queue in batches ([batch = false] degrades
   [max] to 1, which makes [pop_batch] exactly [pop] and every batch a
   singleton — the serial executor).

   While a checkpoint is in flight the loop switches to non-blocking
   intake: execute whatever is queued, then advance the checkpoint one
   bounded slice — so slices can never starve requests and requests can
   never stall the checkpoint. With an empty queue the loop just slices
   until the checkpoint is done, then goes back to blocking. *)
let executor_loop t =
  let max = if t.cfg.batch then Stdlib.max 1 t.cfg.max_batch else 1 in
  let run jobs =
    note_depth t;
    execute_batch t jobs;
    note_depth t
  in
  let rec loop () =
    maybe_start_checkpoint t;
    match t.ckpt with
    | Some _ ->
      (match Bounded_queue.try_pop_batch t.queue ~max with
      | [] -> ()
      | jobs -> run jobs);
      checkpoint_step t;
      loop ()
    | None ->
      (match Bounded_queue.pop_batch t.queue ~max with
      | [] -> ()  (* closed and drained: shutdown *)
      | jobs ->
        run jobs;
        loop ())
  in
  loop ()

(* --- per-connection readers ---------------------------------------------- *)

let reader_loop t conn =
  let disconnect () =
    (* during shutdown the control lane is closed and this is a no-op
       ([shutdown] itself closes every session and connection) *)
    Bounded_queue.push_control t.queue (J_disconnect conn)
  in
  let rec loop () =
    match Wire.read_frame conn.fd with
    | exception _ -> disconnect ()
    | Ok None | Error _ -> disconnect ()
    | Ok (Some payload) ->
      (match Wire.decode_request payload with
      | Error msg ->
        (* answer on request id 0 — the caller cannot be identified *)
        send conn
          {
            Wire.version = Wire.protocol_version;
            request_id = 0;
            session_id = 0;
            msg = Wire.Err (Wire.Bad_request, msg);
          };
        loop ()
      | Ok frame ->
        let arrival = Obs.Clock.now_s () in
        (match frame.Wire.msg with
        | Wire.Ping ->
          reply conn frame Wire.Pong;
          loop ()
        | Wire.Bye ->
          reply conn frame Wire.Goodbye;
          disconnect ()
        | Wire.Tail _ ->
          if Atomic.get t.draining then begin
            reply conn frame
              (Wire.Err (Wire.Shutting_down, "server is shutting down"));
            loop ()
          end
          else begin
            (* Tail touches only the recorder's ring, so this connection's
               own reader thread can render it — the executor never sees
               the (potentially large) event drain, and polling costs the
               batch pipeline nothing at all *)
            answer_control t conn frame;
            loop ()
          end
        | Wire.Promote ->
          (* answered on this reader thread: promotion blocks on the
             executor draining its injected applies, so it must NOT run
             on the executor itself — only this client waits *)
          let msg =
            if Atomic.get t.draining then
              Wire.Err (Wire.Shutting_down, "server is shutting down")
            else
              match t.promote_hook with
              | None ->
                Wire.Err (Wire.Bad_request, "not a standby: nothing to promote")
              | Some promote ->
                (match promote () with
                | Ok summary -> Wire.Output summary
                | Error why ->
                  Wire.Err (Wire.Exec_error, "promote failed: " ^ why))
          in
          record_event t frame ~session:frame.Wire.session_id ~language:"-"
            ~latency_s:(Obs.Clock.since arrival) ~msg ~batch:0;
          reply conn frame msg;
          loop ()
        | Wire.Repl_hello { gen; pos; boot } ->
          (match t.repl_hello with
          | Some attach when not (Atomic.get t.draining) ->
            (* the connection leaves the request/response protocol: drop
               it from the table (shutdown must not close a descriptor
               the shipper owns) and exit this reader thread *)
            Mutex.lock t.conns_mx;
            Hashtbl.remove t.conns conn.c_id;
            Mutex.unlock t.conns_mx;
            attach conn.fd ~peer:conn.peer ~gen ~pos ~boot
          | Some _ | None ->
            reply conn frame
              (Wire.Err
                 (Wire.Bad_request, "replication not enabled on this server"));
            loop ())
        | Wire.Stats | Wire.Checkpoint ->
          if Atomic.get t.draining then begin
            reply conn frame
              (Wire.Err (Wire.Shutting_down, "server is shutting down"));
            loop ()
          end
          else begin
            (* Stats reads the executor-owned session table and
               Checkpoint drives the executor-owned checkpoint state
               machine, so both ride the (unbounded) control lane: the
               executor answers them ahead of queued user requests, a
               polling dashboard never competes for request-lane slots,
               and neither can be turned away by admission control *)
            Bounded_queue.push_control t.queue
              (J_request (conn, frame, arrival));
            loop ()
          end
        | _ ->
          if Atomic.get t.draining then begin
            reply conn frame
              (Wire.Err (Wire.Shutting_down, "server is shutting down"));
            loop ()
          end
          else begin
            if
              (* fair admission: each connection gets its own lane in the
                 queue, drained round-robin, so one greedy pipeline can
                 neither starve a polite client nor fill the whole
                 queue *)
              Bounded_queue.try_push t.queue ~key:conn.c_id
                (J_request (conn, frame, arrival))
            then begin
              note_depth t;
              loop ()
            end
            else begin
              (* admission control: typed rejection, never a stalled
                 socket. The latency is the (tiny but honest) decode-to
                 -reject time — never a p50-polluting hard zero. *)
              Obs.Metrics.incr c_rejected;
              note_depth t;
              record_event t frame ~session:frame.Wire.session_id ~language:"-"
                ~latency_s:(Obs.Clock.since arrival) ~msg:Wire.Overloaded
                ~batch:0;
              reply conn frame Wire.Overloaded;
              loop ()
            end
          end))
  in
  loop ()

(* --- accept / reaper ----------------------------------------------------- *)

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception _ -> ()  (* listener closed: shutdown *)
    | fd, addr ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      (* A client that stops reading must not wedge the thread writing
         its replies: bound every response write so a full send buffer
         turns into a failed write (the connection is marked dead)
         instead of head-of-line blocking for all sessions. *)
      (if t.cfg.send_timeout_s > 0. then
         try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout_s
         with _ -> ());
      let peer =
        match addr with
        | Unix.ADDR_INET (host, port) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
        | Unix.ADDR_UNIX path -> path
      in
      Mutex.lock t.conns_mx;
      let c_id = t.next_conn in
      t.next_conn <- c_id + 1;
      let conn =
        {
          c_id;
          fd;
          peer;
          write_mx = Mutex.create ();
          alive = true;
          outbox = Queue.create ();
        }
      in
      Hashtbl.replace t.conns c_id conn;
      Mutex.unlock t.conns_mx;
      ignore (Thread.create (fun () -> reader_loop t conn) ());
      loop ()
  in
  loop ()
let reaper_loop t =
  let rec loop elapsed =
    if not (Atomic.get t.reaper_stop) then begin
      Thread.delay 0.05;
      let elapsed = elapsed +. 0.05 in
      if elapsed >= t.cfg.reap_every_s then begin
        (* also the heartbeat for the time-based checkpoint trigger: with
           no traffic the executor only wakes for this *)
        Bounded_queue.push_control t.queue J_reap;
        loop 0.
      end
      else loop elapsed
    end
  in
  loop 0.

(* --- lifecycle ----------------------------------------------------------- *)

let create ?(config = default_config) ?(on_drain = fun () -> ()) sys =
  (* a client that hangs up before its reply is released must cost its
     connection, not the process: with SIGPIPE ignored the write fails
     with EPIPE, which marks the connection dead *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Net.resolve config.host with
  | Error msg -> Error (Printf.sprintf "bad bind address %S: %s" config.host msg)
  | Ok addr ->
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt listener Unix.SO_REUSEADDR true;
       Unix.bind listener (Unix.ADDR_INET (addr, config.port));
       Unix.listen listener 64;
       let bound_port =
         match Unix.getsockname listener with
         | Unix.ADDR_INET (_, port) -> port
         | Unix.ADDR_UNIX _ -> config.port
       in
       let t =
         {
           cfg = config;
           sys;
           queue = Bounded_queue.create ~capacity:config.queue_capacity;
           sessions = Sessions.create sys;
           flushers = [];
           listener;
           bound_port;
           conns = Hashtbl.create 32;
           conns_mx = Mutex.create ();
           next_conn = 1;
           recorder =
             (if config.recorder_capacity > 0 then
                Some
                  (Obs.Recorder.create ~capacity:config.recorder_capacity
                     ~slow_capacity:(Stdlib.max 1 config.slow_log_capacity)
                     ~slow_threshold_s:config.slow_threshold_s ())
              else None);
           started_s = Obs.Clock.now_s ();
           batch_seq = Atomic.make 0;
           draining = Atomic.make false;
           stopped = Atomic.make false;
           reaper_stop = Atomic.make false;
           on_drain;
           executor_thread = None;
           accept_thread = None;
           reaper_thread = None;
           shutdown_mx = Mutex.create ();
           lat_window = Array.make 256 0.;
           lat_count = 0;
           durable_mx = Mutex.create ();
           ckpt = None;
           last_ckpt_s = Obs.Clock.now_s ();
           last_ckpt_mark = 0;
           read_only = Atomic.make false;
           on_durable = None;
           truncate_fence = None;
           repl_hello = None;
           promote_hook = None;
         }
       in
       t.executor_thread <- Some (Thread.create executor_loop t);
       t.accept_thread <- Some (Thread.create accept_loop t);
       t.reaper_thread <- Some (Thread.create reaper_loop t);
       Ok t
     with Unix.Unix_error (err, _, _) ->
       (try Unix.close listener with _ -> ());
       Error
         (Printf.sprintf "cannot listen on %s:%d: %s" config.host config.port
            (Unix.error_message err)))

let port t = t.bound_port

let system t = t.sys

let recorder t = t.recorder

let session_count t = Sessions.active t.sessions

let running t = not (Atomic.get t.stopped)

let shutdown t =
  Mutex.protect t.shutdown_mx @@ fun () ->
  if not (Atomic.get t.stopped) then begin
    Atomic.set t.draining true;
    (* 1. stop accepting *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.listener with _ -> ());
    Option.iter Thread.join t.accept_thread;
    (* 2. drain the queue: no new work enters; the executor finishes what
       is queued (and any in-flight checkpoint) and exits *)
    Bounded_queue.close t.queue;
    Option.iter Thread.join t.executor_thread;
    (* 3. the flushers land every owed fsync, releasing the last replies *)
    List.iter Flusher.stop t.flushers;
    (* 4. the session table is safe to touch: close every session,
       aborting transactions left open *)
    Sessions.close_all t.sessions;
    (* 5. persistence hook (the binary checkpoints attached WALs here) *)
    t.on_drain ();
    (* 6. tear down the sockets; readers error out and exit *)
    Atomic.set t.reaper_stop true;
    Option.iter Thread.join t.reaper_thread;
    let conns =
      Mutex.protect t.conns_mx (fun () ->
          let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
          Hashtbl.reset t.conns;
          cs)
    in
    List.iter kill_conn conns;
    Atomic.set t.stopped true
  end

(* --- the replication plane's API ------------------------------------------ *)

(* Run [f] on the executor between two jobs: the control lane,
   never droppable by admission control, FIFO with other injected tasks,
   wakes a blocked executor. *)
let inject t f = Bounded_queue.push_control t.queue (J_task f)

let set_read_only t b = Atomic.set t.read_only b

let read_only t = Atomic.get t.read_only

let set_durability_hook t f = t.on_durable <- f

let set_truncate_fence t f = t.truncate_fence <- f

let set_repl_hello t f = t.repl_hello <- f

let set_promote_hook t f = t.promote_hook <- f

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
  slow_threshold_s : float;
  checkpoint_path : string option;
  checkpoint_every_bytes : int;
}

(* the slow-query ring's entries *)
let slow_log_capacity = 128

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
    (* requests at or over this land in the slow-query log with their
       statement and captured plan *)
    slow_threshold_s = 0.100;
    (* online checkpointing: None = snapshot beside the WAL; the size
       trigger defaults off (shutdown-only checkpointing) *)
    checkpoint_path = None;
    checkpoint_every_bytes = 0;
  }

(* A reply's place in its connection's outbox. It leaves once it is
   computed and its gate is open — the WAL position it depends on is
   durable, or it depends on none. A failed covering fsync fails the
   gate and the reply leaves as an error instead. *)
type gate =
  | Waiting
  | Open
  | Failed of string

(* What the executor computed for a request: a message, or an [Output]
   whose text KFS left in the executor's [reply_buf]. *)
type computed =
  | Message of Wire.response
  | Kfs_text

(* A computed reply as its slot holds it: a message still to be framed,
   or an [Output] already framed — a copy of the executor's frame bytes,
   which the flushers and the loop may write after the executor has
   moved on. *)
type ready =
  | Msg of Wire.response
  | Frame of string

type slot = {
  s_frame : Wire.request Wire.frame;
  mutable s_session : int;
  mutable s_ready : ready option;
  mutable s_gate : gate;
}

(* A standby's replication stream, kept on the loop after [Repl_hello]
   (see the interface). *)
type stream = {
  receive : string -> bool;
  pump : (string -> unit) -> float option;
  closed : unit -> unit;
}

type conn = {
  c_id : int;
  fd : Unix.file_descr;  (* non-blocking *)
  peer : string;
  (* guards [alive], [outbox] and the unsent bytes: replies are completed
     by the executor and the flusher threads, and the loop writes what
     the socket did not take at once *)
  write_mx : Mutex.t;
  mutable alive : bool;
  outbox : slot Queue.t;  (* executor-produced replies, arrival order *)
  out : string Queue.t;  (* released frame parts not yet wholly written *)
  mutable out_pos : int;  (* bytes of the head part already written *)
  (* [out]'s unsent bytes as a write attempt left them, published under
     [write_mx]; the loop reads them without the lock, so a pass never
     waits on, or wakes for, a reply still being written *)
  unsent : int Atomic.t;
  mutable progress_s : float;  (* when unsent bytes last appeared or moved *)
  (* loop-owned: bytes read, not yet a whole frame, are [0, in_len) *)
  mutable inbuf : Bytes.t;
  mutable in_len : int;
  (* set once, by the loop under [write_mx], when the connection becomes
     a standby's stream: its frames go to [receive], and request replies
     are no longer written to it *)
  mutable stream : stream option;
}

type job =
  | J_request of conn * Wire.request Wire.frame
  | J_disconnect of conn
  | J_reap
  | J_task of (unit -> unit)
      (* an injected closure (the replication plane): standby applies,
         bootstrap snapshots. Always rides the control lane. *)

type t = {
  cfg : config;
  sys : Mlds.System.t;
  queue : job Bounded_queue.t;
  sessions : Sessions.t;  (* executor-owned *)
  (* one flusher per attached WAL, created when the log first owes a
     fsync; executor-owned *)
  mutable flushers : Flusher.t list;
  listener : Unix.file_descr;  (* non-blocking *)
  bound_port : int;
  conns : (Unix.file_descr, conn) Hashtbl.t;  (* loop-owned *)
  n_conns : int Atomic.t;  (* [conns]' size, for Stats *)
  mutable next_conn : int;  (* loop-owned *)
  (* a self-pipe: a thread that leaves unsent bytes on a connection
     writes a byte here so the loop adds it to the select *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  recorder : Obs.Recorder.t option;
  started_s : float;
  batch_seq : int Atomic.t;  (* current batch id, stamped into events *)
  draining : bool Atomic.t;
  stopped : bool Atomic.t;  (* also the loop's signal to exit *)
  on_drain : unit -> unit;
  mutable executor_thread : Thread.t option;
  mutable loop_thread : Thread.t option;
  shutdown_mx : Mutex.t;
  (* executor-owned: KFS writes every submitted statement's reply here,
     and each is framed from here into [reply_frame] *)
  reply_buf : Buffer.t;
  mutable reply_frame : Bytes.t;
  (* --- the replication plane's hooks (all optional, all off by default) --- *)
  (* a warm standby refuses writes with Err Read_only until promoted *)
  read_only : bool Atomic.t;
  (* called right after each covering fsync: the shipper publishes the
     durable WAL position from here *)
  mutable on_durable : (unit -> unit) option;
  (* a standby introduced itself: its stream, or [None] to close it *)
  mutable repl_hello : (pos:int -> boot:bool -> stream option) option;
  (* \promote / SIGUSR1: finish applying, enable writes, then call the
     continuation *)
  mutable promote_hook : (((string, string) result -> unit) -> unit) option;
}

(* --- metrics ------------------------------------------------------------- *)

let g_queue_depth = Obs.Metrics.gauge "server.queue_depth"

let c_rejected = Obs.Metrics.counter "server.rejected_total"

let c_requests = Obs.Metrics.counter "server.requests_total"

let c_disconnects = Obs.Metrics.counter "server.disconnects_total"

(* How each [Output] framed in the executor's bytes left: wholly from
   them, partly from them (the rest copied), or copied whole into its
   slot to leave later (behind an unsent reply, or on a fsync). *)
let c_reply_immediate = Obs.Metrics.counter "server.reply.immediate"

let c_reply_partial = Obs.Metrics.counter "server.reply.partial"

let c_reply_deferred = Obs.Metrics.counter "server.reply.deferred"

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

(* Unsent bytes past this stop the loop reading the connection until
   they drain: a client that stops reading cannot grow them unboundedly. *)
let out_limit = 1 lsl 20

let wake t =
  try ignore (Unix.single_write t.wake_w (Bytes.make 1 'w') 0 1) with _ -> ()

let publish conn =
  Atomic.set conn.unsent
    (Queue.fold (fun n b -> n + String.length b) (-conn.out_pos) conn.out)

(* Write [len] bytes of [b] from [ofs] as far as the socket takes them
   now, never blocking; the count written. A failed write marks the
   connection dead. The caller holds [write_mx]. *)
let rec write_some conn b ofs len =
  if len = 0 then 0
  else
    match Unix.single_write conn.fd b ofs len with
    | n ->
      conn.progress_s <- Obs.Clock.now_s ();
      n + write_some conn b (ofs + n) (len - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some conn b ofs len
    | exception _ ->
      conn.alive <- false;
      0

(* Write what the socket takes of the unsent frames now and publish what
   is left. A failed write drops the connection's bytes; the loop reads
   the broken socket and drops the connection. The caller holds
   [write_mx]. *)
let write_out conn =
  let rec go () =
    match Queue.peek_opt conn.out with
    | None -> ()
    | Some s ->
      let len = String.length s - conn.out_pos in
      (* [write] only reads the bytes *)
      let n = write_some conn (Bytes.unsafe_of_string s) conn.out_pos len in
      if not conn.alive then begin
        Queue.clear conn.out;
        conn.out_pos <- 0
      end
      else if n = len then begin
        ignore (Queue.pop conn.out);
        conn.out_pos <- 0;
        go ()
      end
      else conn.out_pos <- conn.out_pos + n
  in
  go ();
  publish conn

(* Queue one whole frame, as it is: nothing is copied. When nothing was
   waiting, try the socket at once, so the common frame leaves from the
   thread that released it; what the socket does not take, the loop
   writes. True when that left bytes the loop does not know of yet. The
   caller holds [write_mx]. *)
let push_out conn bytes =
  let idle = Queue.is_empty conn.out in
  Queue.push bytes conn.out;
  if idle then begin
    conn.progress_s <- Obs.Clock.now_s ();
    write_out conn
  end
  else publish conn;
  idle && not (Queue.is_empty conn.out)

(* A connection request replies are written to *)
let sendable conn = conn.alive && Option.is_none conn.stream

(* Write a frame straight from the executor's bytes, when nothing is
   unsent, and queue a copy of only the part the socket did not take.
   The caller holds [write_mx]. *)
let write_direct t conn b len =
  let n = write_some conn b 0 len in
  if conn.alive && n < len then begin
    Obs.Metrics.incr c_reply_partial;
    Queue.push (Bytes.sub_string b n (len - n)) conn.out;
    conn.progress_s <- Obs.Clock.now_s ();
    publish conn;
    wake t
  end
  else Obs.Metrics.incr c_reply_immediate

(* A response as one frame: an [Output]'s text is copied once. *)
let encode (frame : Wire.response Wire.frame) =
  match frame.Wire.msg with
  | Wire.Output text ->
    Wire.frame_output ~request_id:frame.Wire.request_id
      ~session_id:frame.Wire.session_id text
  | _ -> Bytes.unsafe_to_string (Wire.frame (Wire.encode_response frame))

(* What answers a reply the wire cannot carry: an error under the same
   ids, or 0 for an id outside u32. *)
let refusal (frame : Wire.response Wire.frame) why =
  let id v = if v >= 0 && v <= 0xffff_ffff then v else 0 in
  encode
    {
      frame with
      request_id = id frame.Wire.request_id;
      session_id = id frame.Wire.session_id;
      msg = Wire.Err (Wire.Exec_error, why);
    }

(* Queue one framed reply, waking the loop for what the socket did not
   take. The caller holds [write_mx]. *)
let queue_frame t conn bytes =
  if sendable conn && push_out conn bytes then wake t

(* Queue one reply as one frame. A reply past the frame limit, or with
   an id past u32, leaves as an error, never as a raise on the executor
   or a flusher. The caller holds [write_mx]. *)
let write_locked t conn (frame : Wire.response Wire.frame) =
  if sendable conn then
    queue_frame t conn
      (match encode frame with
      | bytes -> bytes
      | exception Invalid_argument why -> refusal frame why)

let frame_to (req : 'a Wire.frame) ~session_id msg =
  {
    Wire.version = Wire.protocol_version;
    request_id = req.Wire.request_id;
    session_id;
    msg;
  }

(* A frame that answers no identifiable request *)
let unsolicited msg =
  { Wire.version = Wire.protocol_version; request_id = 0; session_id = 0; msg }

let send t conn frame =
  Mutex.protect conn.write_mx (fun () -> write_locked t conn frame)

(* A reply that bypasses the outbox: the loop's answers (Pong,
   Overloaded, Shutting_down, Tail), telemetry and checkpoint replies. *)
let reply t conn (req : 'a Wire.frame) msg =
  send t conn (frame_to req ~session_id:req.Wire.session_id msg)

(* Send every reply at the head of the outbox that may leave — so a
   connection's replies go out in arrival order, each once its gate
   opens. A failed gate turns a success into an error: the reply may
   show, or confirm, a write that is not durable. *)
let rec flush_outbox t conn =
  match Queue.peek_opt conn.outbox with
  | Some
      { s_ready = Some ready; s_gate = (Open | Failed _) as gate; s_frame; s_session }
    ->
    ignore (Queue.pop conn.outbox);
    (match gate, ready with
    | Failed why, (Frame _ | Msg (Wire.Output _ | Wire.Logged_in _ | Wire.Goodbye))
      ->
      write_locked t conn
        (frame_to s_frame ~session_id:s_session (Wire.Err (Wire.Exec_error, why)))
    | _, Frame bytes -> queue_frame t conn bytes
    | _, Msg msg -> write_locked t conn (frame_to s_frame ~session_id:s_session msg));
    flush_outbox t conn
  | Some _ | None -> ()

let update t conn f =
  Mutex.protect conn.write_mx (fun () ->
      f ();
      flush_outbox t conn)

(* Take the frame's place in the outbox — called by the executor in
   arrival order. *)
let enqueue t conn (frame : Wire.request Wire.frame) =
  let slot =
    {
      s_frame = frame;
      s_session = frame.Wire.session_id;
      s_ready = None;
      s_gate = Waiting;
    }
  in
  update t conn (fun () -> Queue.push slot conn.outbox);
  slot

(* --- the flushers ---------------------------------------------------------- *)

let notify_durable t =
  match t.on_durable with
  | None -> ()
  | Some f -> (try f () with _ -> ())

let flusher_of t wal = List.find_opt (fun f -> Flusher.wal f == wal) t.flushers

let flusher_for t wal =
  match flusher_of t wal with
  | Some f -> f
  | None ->
    let f = Flusher.create ~on_durable:(fun () -> notify_durable t) wal in
    t.flushers <- f :: t.flushers;
    f

(* Frame an [Output] KFS left in [reply_buf] once, into the executor's
   [reply_frame]. When it can leave now — its slot heads the outbox, its
   gate is open and nothing is unsent — write it from there and copy
   only the part the socket does not take; otherwise copy the whole
   frame into its slot. A frame the wire cannot carry becomes its
   refusal. The caller holds [write_mx], on the executor. *)
let frame_kfs_text t conn slot =
  let session_id = slot.s_session in
  (match
     Wire.output_frame ~into:t.reply_frame
       ~request_id:slot.s_frame.Wire.request_id ~session_id t.reply_buf
   with
  | exception Invalid_argument why ->
    slot.s_ready <-
      Some (Frame (refusal (frame_to slot.s_frame ~session_id (Wire.Output "")) why))
  | b ->
    let len = Wire.output_head_bytes + Buffer.length t.reply_buf in
    (match Queue.peek_opt conn.outbox with
    | Some first when first == slot && slot.s_gate = Open && Queue.is_empty conn.out
      ->
      ignore (Queue.pop conn.outbox);
      if sendable conn then write_direct t conn b len
    | Some _ | None ->
      Obs.Metrics.incr c_reply_deferred;
      slot.s_ready <- Some (Frame (Bytes.sub_string b 0 len)));
    (* one huge reply must not keep its bytes for good *)
    t.reply_frame <-
      (if Bytes.length b > out_limit then Bytes.create 4096 else b));
  if Buffer.length t.reply_buf > out_limit then Buffer.reset t.reply_buf

(* Fill the slot with its reply, under the release rule. A reply depends
   on its session's database WAL up to the commit position right after
   it executed: everything the reply can show or confirm lies below it.
   It leaves once that position is durable — at once when there is no
   WAL, or when that position is durable already. *)
let complete t conn slot ~session ~db computed =
  let gate =
    Option.map
      (fun wal -> flusher_for t wal, Mlds.Wal.committed_position wal)
      (Option.bind db (fun db -> Mlds.System.wal_of t.sys ~db))
  in
  let pending =
    match gate with Some (f, pos) -> not (Flusher.durable f pos) | None -> false
  in
  update t conn (fun () ->
      slot.s_session <- session;
      if not pending then slot.s_gate <- Open;
      match computed with
      | Message msg -> slot.s_ready <- Some (Msg msg)
      | Kfs_text -> frame_kfs_text t conn slot);
  match gate with
  | Some (f, pos) when pending ->
    Flusher.when_durable f pos (fun failed ->
        update t conn (fun () ->
            slot.s_gate <-
              (match failed with None -> Open | Some why -> Failed why)))
  | Some _ | None -> ()

(* --- the executor -------------------------------------------------------- *)

(* a transaction opcode's call and its acknowledgement *)
let txn = function
  | Wire.Begin_txn -> (Mlds.System.begin_txn, "transaction started")
  | Wire.Commit_txn -> (Mlds.System.commit_txn, "transaction committed")
  | _ -> (Mlds.System.abort_txn, "transaction aborted")

let response_of_handle_error (e : Mlds.System.handle_error) =
  let text = Mlds.System.handle_error_to_string e in
  match e with
  | Mlds.System.H_parse msg -> Wire.Err (Wire.Parse_error, msg)
  | Mlds.System.H_busy _ -> Wire.Err (Wire.Txn_busy, text)
  | Mlds.System.H_closed -> Wire.Err (Wire.Bad_session, text)
  | Mlds.System.H_no_txn | Mlds.System.H_txn_open ->
    Wire.Err (Wire.Exec_error, text)

(* --- the flight recorder -------------------------------------------------- *)

let outcome_of_msg = function
  | Wire.Err (kind, _) -> Obs.Recorder.O_error (Wire.err_kind_name kind)
  | Wire.Overloaded -> Obs.Recorder.O_rejected
  | Wire.Logged_in _ | Wire.Output _ | Wire.Pong | Wire.Goodbye ->
    Obs.Recorder.O_ok

(* Every completed request becomes one ring event, written in place
   under the recorder's mutex, so this is safe from the executor and the
   I/O loop (the Overloaded path). *)
let record_event t (frame : Wire.request Wire.frame) ~session
    ~language ~latency_s ~batch computed =
  match t.recorder with
  | None -> ()
  | Some r ->
    let bytes_out, outcome =
      match computed with
      | Message msg -> Wire.response_size msg, outcome_of_msg msg
      | Kfs_text ->
        ( Wire.response_size (Wire.Output "") + Buffer.length t.reply_buf,
          Obs.Recorder.O_ok )
    in
    ignore
      (Obs.Recorder.record r ~ts_s:(Obs.Clock.now_s ()) ~session
         ~request_id:frame.Wire.request_id ~language
         ~opcode:(Wire.opcode_name frame.Wire.msg)
         ~latency_s
         ~bytes_in:(Wire.request_size frame.Wire.msg)
         ~bytes_out ~outcome ~batch)

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

(* Record a session-less request's outcome in the flight recorder and
   reply to it outside the outbox. *)
let answer t conn (frame : Wire.request Wire.frame) ~latency_s msg =
  record_event t frame ~session:frame.Wire.session_id ~language:"-" ~latency_s
    ~batch:(Atomic.get t.batch_seq) (Message msg);
  reply t conn frame msg

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
       (Sessions.active t.sessions) (Atomic.get t.n_conns)
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
(* Run [f] under the request's [server.request] root span, timed into its
   opcode's histogram: its reply and its latency. *)
let timed_request conn (frame : Wire.request Wire.frame) f =
  Obs.Metrics.incr c_requests;
  let t0 = Obs.Clock.now_s () in
  let msg =
    Obs.Span.with_span "server.request"
      ~attrs:(fun () ->
        [
          "session", string_of_int frame.Wire.session_id;
          "opcode", Wire.opcode_name frame.Wire.msg;
          "request", string_of_int frame.Wire.request_id;
          "peer", conn.peer;
        ])
      f
  in
  let dt = Obs.Clock.since t0 in
  Obs.Metrics.observe (h_opcode frame.Wire.msg) dt;
  (msg, dt)

(* Compute (never send) the response to one frame, on the executor: a
   submitted statement's [Output] stays in [reply_buf]. Also returns the
   database of the session the request ran under: its WAL gates the
   reply. *)
let compute_response t conn (frame : Wire.request Wire.frame) =
  let session_id = ref frame.Wire.session_id in
  (* the handle the request ran against, kept for the flight recorder
     (language tag), the slow-query log (plan capture) and the gate *)
  let used_handle = ref None in
  let err kind why = Message (Wire.Err (kind, why)) in
  let handle_error e = Message (response_of_handle_error e) in
  let computed, dt =
    timed_request conn frame (fun () ->
        match frame.Wire.msg with
        | Wire.Login { user; language; db } ->
          (match
             Sessions.login t.sessions ~conn:conn.c_id ~user ~language ~db
           with
          | Ok entry ->
            session_id := entry.Sessions.id;
            used_handle := Some entry.Sessions.handle;
            Message (Wire.Logged_in entry.Sessions.id)
          | Error msg -> err Wire.Exec_error msg)
        (* unreachable: the I/O loop answers these, and the batch walk
           answers Stats and Checkpoint itself *)
        | Wire.Ping | Wire.Bye | Wire.Stats | Wire.Tail _ | Wire.Checkpoint
        | Wire.Promote | Wire.Repl_hello _ ->
          err Wire.Bad_request "not an executor request"
        | Wire.Submit _ | Wire.Explain _ | Wire.Begin_txn | Wire.Commit_txn
        | Wire.Abort_txn | Wire.Logout ->
          (match Sessions.find t.sessions frame.Wire.session_id with
          | None ->
            err Wire.Bad_session
              (Printf.sprintf "unknown session %d" frame.Wire.session_id)
          (* Sessions are connection-scoped: ids are guessable small
             integers, so a frame naming a session opened on another
             connection is a hijack attempt, not a valid request. The
             reply deliberately matches the unknown-session error — it
             must not confirm that the id exists elsewhere. *)
          | Some entry when entry.Sessions.conn <> conn.c_id ->
            err Wire.Bad_session
              (Printf.sprintf "unknown session %d" frame.Wire.session_id)
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
              err Wire.Read_only
                "standby is read-only: writes go to the primary (or promote \
                 this standby first)"
            else (match frame.Wire.msg with
            | Wire.Submit src ->
              (match Mlds.System.submit_handle_into t.reply_buf handle src with
              | Ok () -> Kfs_text
              | Error e -> handle_error e)
            | Wire.Explain src ->
              (match Mlds.System.explain_handle handle src with
              | Ok out -> Message (Wire.Output out)
              | Error e -> handle_error e)
            | (Wire.Begin_txn | Wire.Commit_txn | Wire.Abort_txn) as op ->
              let run, acknowledged = txn op in
              (match run handle with
              | Ok () -> Message (Wire.Output acknowledged)
              | Error e -> handle_error e)
            | Wire.Logout ->
              Sessions.close t.sessions entry;
              Message Wire.Goodbye
            | Wire.Login _ | Wire.Ping | Wire.Bye | Wire.Stats | Wire.Tail _
            | Wire.Checkpoint | Wire.Promote | Wire.Repl_hello _ ->
              assert false)))
  in
  let language =
    match !used_handle with
    | Some h -> Mlds.System.language_to_string (Mlds.System.handle_language h)
    | None -> "-"
  in
  let batch = Atomic.get t.batch_seq in
  record_event t frame ~session:!session_id ~language ~latency_s:dt ~batch
    computed;
  capture_slow t frame ~session:!session_id ~language ~latency_s:dt
    ~handle:!used_handle;
  !session_id, Option.map Mlds.System.handle_db !used_handle, computed

(* Answer a telemetry op (Stats/Tail) in place, outside the outbox and
   never gated on a fsync. Stats arrives on the control lane (it reads
   the executor-owned session table); Tail touches only the recorder
   ring, so the I/O loop calls this directly. In
   both cases polling cannot queue behind user traffic — and may
   therefore overtake data replies on the same connection; dashboards
   use a dedicated connection. *)
let answer_control t conn (frame : Wire.request Wire.frame) =
  let msg, dt =
    timed_request conn frame (fun () ->
        match frame.Wire.msg with
        | Wire.Stats -> stats_response t
        | Wire.Tail { cursor; slow_cursor; max_events } ->
          tail_response t ~cursor ~slow_cursor ~max_events
        | _ -> Wire.Err (Wire.Bad_request, "not a telemetry opcode"))
  in
  answer t conn frame ~latency_s:dt msg

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

let checkpoint_due t =
  t.cfg.checkpoint_every_bytes > 0
  && (not (Atomic.get t.draining))
  &&
  match checkpoint_target t with
  | None -> false
  | Some (_, wal) -> Mlds.Wal.file_bytes wal >= t.cfg.checkpoint_every_bytes

(* One whole checkpoint, on the executor between two batches: outside
   any commit group, once the log's flusher has drained, so nothing
   appends to the log or fsyncs it between the snapshot's stamp and the
   truncation. Then it answers its requesters, after every reply the
   snapshot covers has been released. *)
let run_checkpoint t requesters =
  let answer_all ~latency_s msg =
    List.iter (fun (conn, frame) -> answer t conn frame ~latency_s msg) requesters
  in
  match checkpoint_target t with
  | None ->
    answer_all ~latency_s:0.
      (Wire.Err (Wire.Exec_error, "no WAL attached: nothing to checkpoint"))
  | Some (db, wal) ->
    Option.iter Flusher.drain (flusher_of t wal);
    let file =
      match t.cfg.checkpoint_path with
      | Some f -> f
      | None -> Mlds.Wal.path wal ^ ".snapshot"
    in
    let started = Obs.Clock.now_s () in
    let before = Mlds.Wal.file_bytes wal in
    let result = Mlds.Persist.checkpoint t.sys ~db ~file in
    let now = Obs.Clock.now_s () in
    let dur = now -. started in
    let reclaimed, msg =
      match result with
      | Ok () ->
        let reclaimed = Stdlib.max 0 (before - Mlds.Wal.file_bytes wal) in
        Obs.Metrics.incr c_ckpt;
        Obs.Metrics.observe h_ckpt dur;
        Obs.Metrics.set_gauge g_ckpt_reclaimed (float_of_int reclaimed);
        ( reclaimed,
          Wire.Output
            (Printf.sprintf
               "checkpoint complete: %s (reclaimed %d WAL bytes in %.3fs)" file
               reclaimed dur) )
      | Error why -> (0, Wire.Err (Wire.Exec_error, "checkpoint failed: " ^ why))
    in
    (* the size trigger's own flight-recorder trace (it has no requesting
       frame): opcode "checkpoint", bytes_out = reclaimed *)
    (match t.recorder with
    | Some r when requesters = [] ->
      ignore
        (Obs.Recorder.record r ~ts_s:now ~session:0 ~request_id:0 ~language:"-"
           ~opcode:"checkpoint" ~latency_s:dur ~bytes_in:0 ~bytes_out:reclaimed
           ~outcome:
             (match result with
             | Ok () -> Obs.Recorder.O_ok
             | Error e -> Obs.Recorder.O_error e)
           ~batch:(Atomic.get t.batch_seq))
    | Some _ | None -> ());
    answer_all ~latency_s:dur msg

let drain_flushers t = List.iter Flusher.drain t.flushers

(* --- executing one batch ---------------------------------------------------- *)

(* Execute one batch: walk the jobs in arrival order and execute each at
   its arrival position — exactly what the serial executor does, one job
   at a time. Every reply takes its connection's outbox slot in arrival
   order and is gated by the release rule ({!complete}). The batch is
   bracketed by {!Mlds.System.wal_group_begin}/[wal_group_end]:
   commit-time fsyncs are deferred, and at batch end each log that owes a
   covering fsync hands its commit position to its flusher — the
   executor starts the next batch at once, and commits executed while
   that fsync is in flight queue for the following one. A \checkpoint
   in the batch, or the size trigger, takes one checkpoint after it. *)
let execute_batch t jobs =
  Atomic.incr t.batch_seq;
  Mlds.System.wal_group_begin t.sys;
  let requesters = ref [] in
  let walk job =
    (match t.cfg.executor_hook with Some hook -> hook () | None -> ());
    match job with
    | J_request (conn, ({ Wire.msg = Wire.Stats | Wire.Tail _; _ } as frame)) ->
      answer_control t conn frame
    | J_request (conn, ({ Wire.msg = Wire.Checkpoint; _ } as frame)) ->
      if Atomic.get t.read_only then
        (* a standby's WAL belongs to the replication stream; truncating
           it out from under the receiver would corrupt the standby's
           notion of its own position *)
        answer t conn frame ~latency_s:0.
          (Wire.Err (Wire.Read_only, "standby: checkpointing is the primary's job"))
      else requesters := (conn, frame) :: !requesters
    | J_task f -> (try f () with _ -> ())
    | J_request (conn, frame) ->
      let slot = enqueue t conn frame in
      let session, db, computed =
        try compute_response t conn frame
        with exn ->
          Obs.Metrics.incr c_internal;
          ( frame.Wire.session_id,
            None,
            Message (Wire.Err (Wire.Exec_error, Printexc.to_string exn)) )
      in
      complete t conn slot ~session ~db computed
    | J_disconnect conn ->
      (* the disconnect contract: sessions die with their connection,
         aborting any transaction left open *)
      Sessions.close_conn t.sessions ~conn:conn.c_id
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
  if not t.cfg.batch then drain_flushers t;
  if !requesters <> [] || checkpoint_due t then
    run_checkpoint t (List.rev !requesters)

(* The executor: drain the queue in batches ([batch = false] degrades
   [max] to 1, which makes [pop_batch] exactly [pop] and every batch a
   singleton — the serial executor). *)
let executor_loop t =
  let max = if t.cfg.batch then Stdlib.max 1 t.cfg.max_batch else 1 in
  let rec loop () =
    match Bounded_queue.pop_batch t.queue ~max with
    | [] -> ()  (* closed and drained: shutdown *)
    | jobs ->
      note_depth t;
      execute_batch t jobs;
      note_depth t;
      loop ()
  in
  loop ()

(* --- the I/O loop ------------------------------------------------------------ *)

(* Everything below runs on the one I/O thread, which owns the listener,
   the connection table and every connection's input buffer. *)

let forget t conn =
  Hashtbl.remove t.conns conn.fd;
  Atomic.decr t.n_conns

(* Stop watching [conn] and close it, after one last non-blocking write;
   its sessions close on the executor, through the control lane (a no-op
   once shutdown has closed the queue: [shutdown] closes every session
   itself). *)
let drop t conn =
  forget t conn;
  Mutex.protect conn.write_mx (fun () ->
      write_out conn;
      conn.alive <- false;
      try Unix.close conn.fd with _ -> ());
  Option.iter (fun st -> try st.closed () with _ -> ()) conn.stream;
  Obs.Metrics.incr c_disconnects;
  Bounded_queue.push_control t.queue (J_disconnect conn)

(* Run the promote hook; [k] gets its result on whichever thread finishes
   the promotion. *)
let promote t k =
  match t.promote_hook with
  | None -> k (Error "not a standby: nothing to promote")
  | Some hook -> (try hook k with e -> k (Error (Printexc.to_string e)))

(* Answer or route one decoded frame. *)
let dispatch t conn (frame : Wire.request Wire.frame) =
  match frame.Wire.msg with
  | Wire.Ping -> reply t conn frame Wire.Pong
  | Wire.Bye ->
    reply t conn frame Wire.Goodbye;
    drop t conn
  | _ when Atomic.get t.draining ->
    reply t conn frame (Wire.Err (Wire.Shutting_down, "server is shutting down"))
  | Wire.Tail _ ->
    (* Tail touches only the recorder's ring: the executor never sees
       the (potentially large) event drain *)
    answer_control t conn frame
  | Wire.Promote ->
    (* the reply leaves from whichever thread finishes the promotion (the
       standby's executor): the loop never waits for it *)
    let arrival = Obs.Clock.now_s () in
    let answer msg =
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:(Obs.Clock.since arrival) ~batch:0 (Message msg);
      reply t conn frame msg
    in
    if Option.is_none t.promote_hook then
      answer (Wire.Err (Wire.Bad_request, "not a standby: nothing to promote"))
    else
      promote t (function
        | Ok summary -> answer (Wire.Output summary)
        | Error why -> answer (Wire.Err (Wire.Exec_error, "promote failed: " ^ why)))
  | Wire.Repl_hello { pos; boot } ->
    (match t.repl_hello with
    | Some attach ->
      (* the connection leaves the request/response protocol and stays on
         the loop as a stream; no request reply is written to it again *)
      (match attach ~pos ~boot with
      | Some st -> Mutex.protect conn.write_mx (fun () -> conn.stream <- Some st)
      | None -> drop t conn)
    | None ->
      reply t conn frame
        (Wire.Err (Wire.Bad_request, "replication not enabled on this server")))
  | Wire.Stats | Wire.Checkpoint ->
    (* Stats reads the executor-owned session table and Checkpoint runs
       on the executor between two batches, so both ride the (unbounded)
       control lane: the executor takes them ahead of queued user
       requests, and admission control never turns them away *)
    Bounded_queue.push_control t.queue (J_request (conn, frame))
  | _ ->
    (* fair admission: each connection gets its own lane in the queue,
       drained round-robin, so one greedy pipeline can neither starve a
       polite client nor fill the whole queue *)
    let arrival = Obs.Clock.now_s () in
    if not (Bounded_queue.try_push t.queue ~key:conn.c_id (J_request (conn, frame)))
    then begin
      (* admission control: a typed rejection, never a stalled socket.
         The latency is the (tiny but honest) admission-to-reject time. *)
      Obs.Metrics.incr c_rejected;
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:(Obs.Clock.since arrival) ~batch:0 (Message Wire.Overloaded);
      reply t conn frame Wire.Overloaded
    end;
    note_depth t

(* Dispatch every whole frame in the input buffer from [pos] on, while
   the connection stays in the loop (Bye takes it out), or hand it to the
   connection's stream; move an incomplete tail to the buffer's front. *)
let rec split t conn pos =
  match Wire.next_frame conn.inbuf ~pos ~len:(conn.in_len - pos) with
  | Error _ -> drop t conn
  | Ok None ->
    Bytes.blit conn.inbuf pos conn.inbuf 0 (conn.in_len - pos);
    conn.in_len <- conn.in_len - pos
  | Ok (Some (payload, used)) ->
    (match conn.stream with
    | Some st -> if not (try st.receive payload with _ -> false) then drop t conn
    | None ->
      (match Wire.decode_request payload with
      | Ok frame -> dispatch t conn frame
      | Error msg ->
        (* the caller cannot be identified *)
        send t conn (unsolicited (Wire.Err (Wire.Bad_request, msg)))));
    if Hashtbl.mem t.conns conn.fd then split t conn (pos + used)

(* Read what the socket holds into the input buffer, doubled when a
   frame fills it. *)
let read_conn t conn =
  if conn.in_len = Bytes.length conn.inbuf then
    conn.inbuf <- Bytes.extend conn.inbuf 0 (Bytes.length conn.inbuf);
  match
    Unix.read conn.fd conn.inbuf conn.in_len
      (Bytes.length conn.inbuf - conn.in_len)
  with
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    ()
  | exception _ -> drop t conn
  | 0 -> drop t conn
  | n ->
    conn.in_len <- conn.in_len + n;
    split t conn 0

let peer_name = function
  | Unix.ADDR_INET (host, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
  | Unix.ADDR_UNIX path -> path

let rec accept_all t =
  match Unix.accept ~cloexec:true t.listener with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all t
  | exception Unix.Unix_error _ -> ()  (* none pending, or shut down *)
  | fd, addr ->
    (match Unix.select [ fd ] [] [] 0. with
    | exception Unix.Unix_error _ ->
      (* select cannot watch this descriptor (past FD_SETSIZE): refuse
         the connection with the typed overload reply, which fits the
         fresh socket's buffer, then close it *)
      Obs.Metrics.incr c_rejected;
      (try
         Wire.write_frame fd
           (Wire.encode_response (unsolicited Wire.Overloaded))
       with _ -> ());
      (try Unix.close fd with _ -> ())
    | _ ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      let c_id = t.next_conn in
      t.next_conn <- c_id + 1;
      Hashtbl.replace t.conns fd
        {
          c_id;
          fd;
          peer = peer_name addr;
          write_mx = Mutex.create ();
          alive = true;
          outbox = Queue.create ();
          out = Queue.create ();
          out_pos = 0;
          unsent = Atomic.make 0;
          progress_s = 0.;
          inbuf = Bytes.create 4096;
          in_len = 0;
          stream = None;
        };
      Atomic.incr t.n_conns);
    accept_all t

let no_timeout s = if s > 0. then s else Float.infinity

(* A stream's frame, queued like a reply (on the loop, so nothing to wake) *)
let stream_send conn payload =
  Mutex.protect conn.write_mx (fun () ->
      if conn.alive then
        ignore (push_out conn (Bytes.unsafe_to_string (Wire.frame payload))))

(* Let a stream with room queue what is due: false when it asks to be
   closed; its next heartbeat joins the select's deadline. *)
let pump_stream conn deadline =
  match conn.stream with
  | Some st when Atomic.get conn.unsent <= out_limit ->
    (match st.pump (stream_send conn) with
    | Some due ->
      deadline := Float.min !deadline due;
      true
    | None | (exception _) -> false)
  | Some _ | None -> true

(* One pass: push the idle sweep when due, pump every stream with room,
   drop every connection whose unsent bytes have not moved for
   [send_timeout_s] (or whose stream is over), then wait in select for
   the next readable or writable socket, the next sweep, the next
   write deadline or the next heartbeat — and serve what it reports. A
   connection is read only while its unsent bytes are under [out_limit],
   and watched for writing while it has any. *)
let io_loop t =
  (* a 50 ms floor: a period <= 0 must not spin the loop *)
  let reap_every = Stdlib.max 0.05 t.cfg.reap_every_s in
  let next_reap = ref (Obs.Clock.now_s () +. reap_every) in
  while not (Atomic.get t.stopped) do
    let listening = not (Atomic.get t.draining) in
    let now = Obs.Clock.now_s () in
    if now >= !next_reap then begin
      Bounded_queue.push_control t.queue J_reap;
      next_reap := now +. reap_every
    end;
    let reads = ref [ t.wake_r ] and writes = ref [] and stale = ref [] in
    let deadline = ref !next_reap in
    if listening then reads := t.listener :: !reads;
    Hashtbl.iter
      (fun fd conn ->
        let live = pump_stream conn deadline in
        let left = Atomic.get conn.unsent in
        let due =
          if left = 0 then Float.infinity
          else
            Mutex.protect conn.write_mx (fun () -> conn.progress_s)
            +. no_timeout t.cfg.send_timeout_s
        in
        if (not live) || now >= due then stale := conn :: !stale
        else begin
          if left > 0 then begin
            writes := fd :: !writes;
            deadline := Float.min !deadline due
          end;
          if left <= out_limit then reads := fd :: !reads
        end)
      t.conns;
    List.iter (drop t) !stale;
    match
      Unix.select !reads !writes [] (Float.max 0. (!deadline -. now))
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      List.iter
        (fun fd ->
          if fd = t.wake_r then
            (try ignore (Unix.read t.wake_r (Bytes.create 64) 0 64) with _ -> ())
          else if fd = t.listener then accept_all t
          else
            match Hashtbl.find_opt t.conns fd with
            | Some conn -> read_conn t conn
            | None -> ())
        readable;
      List.iter
        (fun fd ->
          match Hashtbl.find_opt t.conns fd with
          | None -> ()
          | Some conn ->
            Mutex.protect conn.write_mx (fun () -> write_out conn))
        writable
  done;
  List.iter (drop t) (Hashtbl.fold (fun _ conn acc -> conn :: acc) t.conns []);
  Unix.close t.listener

(* --- lifecycle ----------------------------------------------------------- *)

let create ?(config = default_config) ?(on_drain = fun () -> ()) sys =
  (* a client that hangs up before its reply is released must cost its
     connection, not the process: with SIGPIPE ignored the write fails
     with EPIPE, which marks the connection dead *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  match Net.resolve config.host with
  | Error msg -> Error (Printf.sprintf "bad bind address %S: %s" config.host msg)
  | Ok addr ->
    let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    let wake_r, wake_w = Unix.pipe ~cloexec:true () in
    (try
       Unix.setsockopt listener Unix.SO_REUSEADDR true;
       Unix.bind listener (Unix.ADDR_INET (addr, config.port));
       Unix.listen listener 64;
       List.iter Unix.set_nonblock [ listener; wake_r; wake_w ];
       (* raises when select cannot watch them (past FD_SETSIZE) *)
       ignore (Unix.select [ listener; wake_r ] [] [] 0.);
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
           n_conns = Atomic.make 0;
           next_conn = 1;
           wake_r;
           wake_w;
           recorder =
             (if config.recorder_capacity > 0 then
                Some
                  (Obs.Recorder.create ~capacity:config.recorder_capacity
                     ~slow_capacity:slow_log_capacity
                     ~slow_threshold_s:config.slow_threshold_s ())
              else None);
           started_s = Obs.Clock.now_s ();
           batch_seq = Atomic.make 0;
           draining = Atomic.make false;
           stopped = Atomic.make false;
           on_drain;
           executor_thread = None;
           loop_thread = None;
           shutdown_mx = Mutex.create ();
           reply_buf = Buffer.create 4096;
           reply_frame = Bytes.create 4096;
           read_only = Atomic.make false;
           on_durable = None;
           repl_hello = None;
           promote_hook = None;
         }
       in
       t.executor_thread <- Some (Thread.create executor_loop t);
       t.loop_thread <- Some (Thread.create io_loop t);
       Ok t
     with Unix.Unix_error (err, _, _) ->
       List.iter
         (fun fd -> try Unix.close fd with _ -> ())
         [ listener; wake_r; wake_w ];
       Error
         (Printf.sprintf "cannot listen on %s:%d: %s" config.host config.port
            (Unix.error_message err)))

let port t = t.bound_port

let session_count t = Sessions.active t.sessions

let running t = not (Atomic.get t.stopped)

let shutdown t =
  Mutex.protect t.shutdown_mx @@ fun () ->
  if not (Atomic.get t.stopped) then begin
    (* 1. stop accepting: connects are refused from here on, and the
       loop stops watching the listener (it closes it on exit); it goes
       on answering frames with [Shutting_down] and writing released
       replies *)
    Atomic.set t.draining true;
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with _ -> ());
    wake t;
    (* 2. drain the queue: no new work enters; the executor finishes what
       is queued (and any checkpoint it asks for) and exits *)
    Bounded_queue.close t.queue;
    Option.iter Thread.join t.executor_thread;
    (* 3. the flushers land every owed fsync, releasing the last replies *)
    List.iter Flusher.stop t.flushers;
    (* 4. the session table is safe to touch: close every session,
       aborting transactions left open *)
    Sessions.close_all t.sessions;
    (* 5. persistence hook (the binary checkpoints attached WALs here) *)
    t.on_drain ();
    (* 6. the loop closes every connection and exits; no thread is
       left to write the wake pipe *)
    Atomic.set t.stopped true;
    wake t;
    Option.iter Thread.join t.loop_thread;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end

(* --- the replication plane's API ------------------------------------------ *)

(* Run [f] on the executor between two jobs: the control lane,
   never droppable by admission control, FIFO with other injected tasks,
   wakes a blocked executor. *)
let inject t f = Bounded_queue.push_control t.queue (J_task f)

let set_read_only t b = Atomic.set t.read_only b

let read_only t = Atomic.get t.read_only

let set_durability_hook t f = t.on_durable <- f

let set_repl_hello t f = t.repl_hello <- f

let set_promote_hook t f = t.promote_hook <- f

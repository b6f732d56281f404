(** The MLDS wire protocol (v1): length-prefixed binary frames over TCP.

    Framing: every message is a [u32] big-endian byte count followed by
    that many payload bytes. The payload starts with a versioned header —

    {v
    version    u8   (currently 1)
    request_id u32  client-chosen correlation id, echoed in the response
    session_id u32  0 before login; thereafter the id LOGGED_IN returned
    opcode     u8
    body       opcode-specific
    v}

    — so a v2 server can dispatch on the version byte before touching the
    rest. Strings are [u32] length + bytes (no terminator). Frames larger
    than {!max_frame_bytes} are rejected at the read boundary: a
    misbehaving peer cannot make the server allocate unboundedly.

    Encoding and decoding are pure (bytes in, message out) and
    round-trip exactly — property-tested in [test/test_server.ml]. The
    blocking {!read_frame}/{!write_frame} are the only IO here (the
    client library and the replication plane use them); the server's
    I/O loop frames its non-blocking sockets with {!frame} and
    {!next_frame}. *)

(** Client → server messages. [Login] binds a new session on this
    connection (any number may be opened; each frame names its target via
    the header's [session_id]). Sessions are usable only from the
    connection that opened them — the server refuses a session id
    presented on any other connection with [Bad_session]. [Logout]
    closes one session; [Bye] ends the connection (the server closes
    every session opened on it — disconnect aborts their open
    transactions). *)
type request =
  | Login of { user : string; language : string; db : string }
  | Submit of string  (** source text in the session's language *)
  | Begin_txn
  | Commit_txn
  | Abort_txn
  | Logout
  | Ping
  | Bye
  | Explain of string
      (** ABDL source whose selections are planned but not executed; the
          reply is an [Output] frame carrying the rendered plan *)
  | Stats
      (** telemetry: the reply is an [Output] frame carrying one JSON
          object with uptime, sessions, queue depth, recorder cursors and
          the full metrics snapshot. Needs no session. *)
  | Tail of { cursor : int; slow_cursor : int; max_events : int }
      (** telemetry: drain flight-recorder events with [seq >= cursor]
          (and slow-query entries with [seq >= slow_cursor]); the reply
          is an [Output] JSON object carrying the events plus the next
          cursors. [max_events = 0] means the server default. Needs no
          session. *)
  | Checkpoint
      (** admin: snapshot the server's database online and truncate its
          WAL to the snapshot position. Rides the control lane (never
          droppable by admission control); the reply — an [Output] frame
          with a one-line summary — is withheld until the checkpoint is
          durable. Needs no session. *)
  | Promote
      (** admin: promote a standby to full primary — stop replicating,
          finish applying everything received, enable writes. The reply
          is an [Output] summary, or [Err Bad_request] on a server that
          is not a standby. Needs no session. *)
  | Repl_hello of { gen : int; pos : int; boot : bool }
      (** replication handshake: a standby introduces itself with the
          primary-side WAL coordinates it has ([gen], [pos]) — or
          [boot = true] to request a full snapshot bootstrap. On a
          primary with replication enabled the connection leaves the
          request/response protocol entirely: the socket is handed to
          the shipper, which streams [Replica.Protocol] messages from
          here on. Otherwise answered with [Err Bad_request]. *)

(** Why a request was refused (the typed errors of the server tier). *)
type err_kind =
  | Parse_error  (** the submission failed to parse *)
  | Exec_error  (** the request was understood but could not run *)
  | Bad_session
      (** unknown / closed / reaped session id, or a session opened on a
          different connection *)
  | Txn_busy  (** another session's transaction is open on the database *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Bad_request  (** malformed frame or opcode *)
  | Read_only
      (** the server is a warm standby: reads are served (stale by the
          replication lag), writes must go to the primary — or promote
          this standby first *)

type response =
  | Logged_in of int  (** the new session id *)
  | Output of string  (** formatted KFS output (or a txn acknowledgement) *)
  | Err of err_kind * string
  | Overloaded
      (** admission control: the request queue is full — backpressure,
          never a stalled socket. Retry later. *)
  | Pong
  | Goodbye

(** A protocol message with its header. ['a] is {!request} or
    {!response}. *)
type 'a frame = { version : int; request_id : int; session_id : int; msg : 'a }

val protocol_version : int

(** Hard ceiling on payload size (16 MiB), enforced by {!read_frame} and
    {!write_frame}. *)
val max_frame_bytes : int

(** Short stable name of a request's opcode ("login", "submit", ...) —
    the per-opcode metrics / span attribute key. *)
val opcode_name : request -> string

(** Every request opcode's name, in wire-code order. *)
val opcode_names : string array

(** [opcode_index msg] is the position of [msg]'s opcode in
    {!opcode_names}: its wire code less one. *)
val opcode_index : request -> int

val err_kind_name : err_kind -> string

(** {2 Codec} — pure, total on the encode side; decode rejects unknown
    versions/opcodes and truncated bodies with a message. *)

val encode_request : request frame -> string

val decode_request : string -> (request frame, string) result

val encode_response : response frame -> string

val decode_response : string -> (response frame, string) result

(** {2 Encoded sizes} — exact payload byte counts (excluding the 4-byte
    length prefix) without encoding; the flight recorder's
    bytes_in/bytes_out. *)

val request_size : request -> int

val response_size : response -> int

(** {2 Framing} *)

(** [frame payload] is the length prefix followed by [payload]. Raises
    [Invalid_argument] if the payload exceeds {!max_frame_bytes}. *)
val frame : string -> Bytes.t

(** [next_frame buf ~pos ~len] is the first whole frame among the [len]
    bytes of [buf] at [pos]: [Ok (Some (payload, used))] where [used] is
    the bytes it took (prefix included), [Ok None] while the frame is
    still incomplete (the bytes stay pending), or [Error] when its length
    prefix announces more than {!max_frame_bytes} — the one check of the
    prefix, which {!read_frame} shares. The server's non-blocking reads
    split their input with it. *)
val next_frame :
  Bytes.t -> pos:int -> len:int -> ((string * int) option, string) result

(** {2 Blocking IO} *)

(** [write_frame fd payload] writes {!frame}[ payload]. Raises
    [Unix.Unix_error] on IO failure, [Invalid_argument] if the payload
    exceeds {!max_frame_bytes}. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one frame. [Ok None] is a clean EOF at a frame
    boundary; [Error] covers truncation mid-frame and oversized
    announcements. Raises [Unix.Unix_error] on IO failure. *)
val read_frame : Unix.file_descr -> (string option, string) result

(** Blocking MLDS client: one TCP connection, one request in flight at a
    time, speaking the versioned wire protocol of {!Server.Wire}.

    The client tracks the session bound by the last successful {!login}
    and stamps it into each frame; {!submit} and the transaction calls
    target that session. Several clients (one per domain/thread) are how
    concurrency is expressed — see [bench/loadgen.ml].

    Every call either returns the server's typed answer or a typed
    failure: [`Overloaded] is the server's admission-control rejection
    (retryable), [`Refused] carries the server's error kind, [`Io] and
    [`Protocol] are transport-level. A response whose request id does not
    match the request's is a [`Protocol] error — the load generator
    counts any of those as protocol failures. *)

type t

type error =
  [ `Overloaded  (** typed backpressure: retry later *)
  | `Refused of Server.Wire.err_kind * string
  | `Io of string  (** connection failed / closed mid-call *)
  | `Protocol of string  (** malformed or mismatched response *)
  ]

val error_to_string : error -> string

(** [connect ?host ~port ()] opens the TCP connection (no frame is
    exchanged until {!login}). [host] is a numeric address or a
    hostname — ["localhost"] resolves via [getaddrinfo]. *)
val connect : ?host:string -> port:int -> unit -> (t, string) result

(** The session id bound by the last successful {!login}, if any. *)
val session_id : t -> int option

(** [login t ?user ~language ~db ()] opens a server-side session — its
    own language interface, currency and transaction scope — and binds
    it as this client's target. [language] is any spelling
    [Mlds.System.language_of_string] accepts. *)
val login :
  t -> ?user:string -> language:string -> db:string -> unit ->
  (int, error) result

(** [submit t src] runs source text in the bound session's language and
    returns the formatted output. *)
val submit : t -> string -> (string, error) result

(** [explain t src] asks the server for the access plan of each selection
    in [src] — ABDL source, whatever language the session is bound to —
    without executing anything. *)
val explain : t -> string -> (string, error) result

(** [stats t] fetches the server's telemetry snapshot — one JSON object
    with uptime, sessions, queue state, recorder cursors and the full
    metrics snapshot. Needs no session; travels the server's control
    lane, so it is answered ahead of queued user traffic. Against a
    pre-telemetry server the call returns
    [`Refused (Bad_request, _)]. *)
val stats : t -> (string, error) result

(** [checkpoint t] asks the server to snapshot its database online and
    truncate the WAL to the snapshot position. The call blocks until
    the checkpoint is durable — the reply is a one-line summary with
    the snapshot path and the reclaimed WAL bytes. Needs no session;
    rides the control lane, so admission control never turns it away.
    Against a pre-checkpoint server the call returns
    [`Refused (Bad_request, _)]. *)
val checkpoint : t -> (string, error) result

(** [promote t] promotes a warm standby to full primary: replication
    stops, everything received is applied, writes are enabled. The reply
    is a one-line summary. Against a server that is not a standby the
    call returns [`Refused (Bad_request, _)]. *)
val promote : t -> (string, error) result

(** [tail t ?max_events ~cursor ~slow_cursor ()] drains flight-recorder
    events with [seq >= cursor] and slow-query entries with
    [seq >= slow_cursor] as a JSON object carrying the next cursors
    ([cursor]/[slow_cursor] fields) — poll with those to never see an
    event twice. [max_events = 0] (default) lets the server choose. *)
val tail :
  t -> ?max_events:int -> cursor:int -> slow_cursor:int -> unit ->
  (string, error) result

val begin_txn : t -> (unit, error) result

val commit_txn : t -> (unit, error) result

val abort_txn : t -> (unit, error) result

val ping : t -> (unit, error) result

(** Close the bound session on the server, keeping the connection (a
    following {!login} can bind a new one). *)
val logout : t -> (unit, error) result

(** Polite close: send [Bye], await [Goodbye], close the socket.
    Idempotent. *)
val close : t -> unit

(** Abrupt close: drop the socket with no farewell — exactly what a
    crashed client looks like to the server (whose disconnect path must
    abort the session's open transaction). Idempotent. *)
val abandon : t -> unit

(** The server-side session table: network session id → live
    {!Mlds.System.handle}.

    Each login opens a fresh handle — its own language interface (chosen
    per session: SQL, CODASYL-DML, Daplex, DL/I, or raw ABDL), its own
    CODASYL currency/work area, its own transaction scope — tagged with
    the owning connection and a last-activity stamp. Closing a session
    closes the handle, which {e aborts} any transaction the session left
    open: disconnect and idle reaping can never strand a half-done
    transaction over the shared kernel.

    Threading contract: every function here must be called from the
    server's executor (the I/O loop only {e enqueues} work). The table is therefore unsynchronised, like the
    kernel it fronts. *)

type entry = {
  id : int;  (** the wire session id (= the handle's id) *)
  handle : Mlds.System.handle;
  conn : int;  (** owning connection *)
  mutable last_active : float;  (** [Unix.gettimeofday] stamp *)
}

type t

val create : Mlds.System.t -> t

val system : t -> Mlds.System.t

(** [login t ~conn ~user ~language ~db] opens a handle and registers it.
    Errors for an unknown language or an impossible language/database
    pair. Updates the [server.sessions_active] gauge. *)
val login :
  t -> conn:int -> user:string -> language:string -> db:string ->
  (entry, string) result

val find : t -> int -> entry option

val touch : entry -> unit

(** Close one session (abort its open transaction, drop it). *)
val close : t -> entry -> unit

(** Close every session owned by connection [conn] — the disconnect
    path. *)
val close_conn : t -> conn:int -> unit

(** Close every session; the shutdown path. *)
val close_all : t -> unit

(** Per-session digest for the [Stats] telemetry reply. Executor-only,
    like every other accessor here. *)
type summary = {
  sum_id : int;
  sum_conn : int;
  sum_user : string;
  sum_language : string;
  sum_db : string;
  sum_idle_s : float;
}

(** Sorted by session id. *)
val summaries : t -> now:float -> summary list

(** [reap_idle t ~now ~idle_timeout_s] closes sessions idle longer than
    the timeout; returns how many were reaped (they also count into
    [server.reaped_total]). *)
val reap_idle : t -> now:float -> idle_timeout_s:float -> int

val active : t -> int

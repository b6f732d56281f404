(** A per-WAL flusher thread: the covering fsync, moved off the executor.

    At batch end the executor {!request}s the position each dirty log
    must reach and starts its next batch at once; the flusher issues one
    {!Mlds.Wal.sync_to} for the highest position requested so far, so
    commits executed while an fsync is in flight queue for the following
    one (pipelined group commit, after Aether — Johnson et al., VLDB
    2010). Replies register with {!when_durable} and are released by the
    flusher when their position lands, or failed when the fsync that
    covers it reports an error ([Mlds.Wal.Crash] or [Unix.Unix_error]).
    A failed fsync does not stop the thread: the next request retries. *)

type t

(** [create ~on_durable wal] starts the thread. [on_durable] runs on it
    after every successful fsync, before the waiters it covers are
    released. *)
val create : on_durable:(unit -> unit) -> Mlds.Wal.t -> t

val wal : t -> Mlds.Wal.t

(** [request t pos] asks for [pos] to become durable; returns at once. *)
val request : t -> int -> unit

(** [durable t pos] is true when [pos] is durable already: the check
    {!when_durable} makes first, made synchronously and with nothing
    registered. A position a failed fsync left behind is not durable. *)
val durable : t -> int -> bool

(** [when_durable t pos k] runs [k None] once [pos] is durable, or
    [k (Some why)] if the fsync covering it fails — immediately, on the
    calling thread, when [pos] is already durable; otherwise later, on
    the flusher thread. The caller must also {!request} a position
    [>= pos]. *)
val when_durable : t -> int -> (string option -> unit) -> unit

(** Block until every requested position is resolved and no fsync is in
    flight. *)
val drain : t -> unit

(** {!drain}, then stop and join the thread. *)
val stop : t -> unit

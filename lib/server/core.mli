(** The MLDS network server: one I/O loop multiplexing many client
    sessions over one shared {!Mlds.System} — the server tier of the
    4-tiered client-server multidatabase shape (client / interface /
    kernel / store).

    {2 Threading model}

    A server runs the executor, the I/O loop and one flusher per WAL
    that has owed an fsync, whatever the number of connections and of
    attached standbys.

    - One {e I/O loop thread} owns the listener and every connection,
      all non-blocking, and waits in [Unix.select] until a socket is
      readable or writable, the next idle sweep is due ([reap_every_s]:
      it pushes the sweep on the control lane), a stalled connection's
      write deadline passes or a standby's next heartbeat is due. Each
      pass accepts, reads what each ready socket holds into its input
      buffer, splits complete frames ({!Wire.next_frame}) and dispatches
      each one: [Ping], [Bye], [Tail] and [Repl_hello] are answered on
      the loop, and [Promote] is started there;
      [Stats] and [Checkpoint] go on the control lane; everything else
      goes to the connection's lane in the executor's bounded request
      queue. A request that finds the queue full, or its lane at its
      quota, is answered at once with the typed [Overloaded] response
      ({e admission control}: backpressure, never a stalled socket) and
      counted in [server.rejected_total]. A connection accepted onto a
      descriptor [select] cannot watch (past [FD_SETSIZE]) gets the same
      [Overloaded] and is closed.
    - A standby's connection stays on the loop after [Repl_hello], as a
      {e stream} ({!stream}): its frames go to the stream's [receive],
      and on every pass with its unsent bytes under the bound the loop
      calls its [pump], which queues what is due and names its next
      heartbeat. A stream's frames leave through the same non-blocking
      writes, read bound and [send_timeout_s] as replies.
    - {e No socket write blocks.} The thread that releases a reply (the
      executor or a flusher) appends its frame to the connection's
      unsent bytes and tries one non-blocking write; the loop writes
      what the socket did not take. A connection whose unsent bytes
      pass a fixed bound is not read until they drain, and one whose
      unsent bytes make no progress for [send_timeout_s] is closed: its
      sessions then close as on any disconnect. A client that stops
      reading delays only itself.
    - One {e executor thread} owns the kernel's serial order and the
      session table, and executes every request, read or write. It
      drains the queue {e in batches} ({!Bounded_queue.pop_batch},
      observed in [server.batch_size]) and runs each job of a batch at
      its arrival position, one at a time — so results are the serial
      execution's by construction. The only parallelism below it is an
      MBDS database's broadcast: the executor and the idle workers of
      {!Mbds.Pool.shared} (one per spare core, none on one core) claim
      a Multi kernel's shares from one counter ({!Mbds.Pool.run}). The
      workers start on the first broadcast, so a server whose set-up
      makes none (SQL INSERTs probe UNIQUE columns on the caller) is
      ready before any worker domain exists. A
      {e control lane} in the same queue carries [Stats], [Checkpoint]
      and {!inject}ed closures ahead of user requests. With
      [batch = false] the executor runs one request at a time and waits
      out each covering fsync before the next: the serial reference.
    - One {e flusher thread per attached WAL} (created when the log
      first owes a fsync) takes the covering fsync off the executor.
      Each batch is bracketed by {!Mlds.System.wal_group_begin} /
      [wal_group_end]: commit-time fsyncs are deferred, and at batch end
      every log that owes one hands its commit position to its flusher.
      The executor starts the next batch at once; commits executed while
      an fsync is in flight queue for the following one. The flusher
      fsyncs, advances [synced_position], runs the durability hook, and
      releases the replies it covers.
    - {e The release rule.} Every reply the executor produces takes a
      slot in its connection's outbox, in arrival order, and carries
      the commit position of its session's database WAL right after the
      request executed: all that the reply can show or confirm lies
      below it. A connection's replies leave in arrival order, each once
      its position is durable — whichever thread completes the last
      condition (executor or flusher) queues and tries to send it. A client therefore
      never sees a write, its own or another session's, before it is
      durable. If the covering fsync fails,
      every reply waiting on it — reads included — leaves as an
      [Exec_error] instead; the flusher stays up and a later fsync
      retries. Each request runs under a [server.request] root span
      (attrs [session], [opcode], [request] — the wire request id, so a
      slow-query entry can name its span — and [peer]) and is timed into
      a per-opcode [server.request.<opcode>_s] histogram. A request
      whose execution raises is answered [Exec_error] with the exception's
      text and counted in [server.internal_errors].
    - An online checkpoint runs whole on the executor, between two
      batches: after the batch's commit group has closed and the log's
      flusher has drained, it writes the snapshot, renames it durable,
      truncates the WAL ({!Mlds.Persist.checkpoint}), and only then
      answers the batch's [Checkpoint] requests. A [Checkpoint] request
      and the size trigger take the same path. {!shutdown} drains the
      flushers the same way.

    {2 Telemetry plane}

    Every completed request is additionally recorded into a lock-free
    {!Obs.Recorder} ring (the {e flight recorder}) with its latency,
    encoded sizes, outcome and executor batch id; requests at or over
    [slow_threshold_s] also land in the slow-query log together with
    their statement text and the planner's [.explain] rendering. Clients
    read both over the wire: [Stats] returns uptime/sessions/queue state
    plus the full {!Obs.Metrics.snapshot} as JSON, and [Tail] drains
    recorder events / slow entries from client-supplied cursors. Both
    opcodes are session-less and bypass admission control: the I/O loop
    answers [Tail] itself and puts [Stats] on the {e control lane}, which
    the executor serves before queued user work; both replies leave
    outside the outbox and are never gated on a fsync — a polling
    dashboard cannot queue behind user traffic (and may therefore
    overtake data replies on the same connection; dashboards should
    poll on a dedicated connection).
      Sessions are {e connection-scoped}: a frame naming a session that
      was opened on a different connection is refused with
      [Bad_session], indistinguishable from an unknown id — session ids
      are small integers, not capabilities, so possession of an id from
      another connection grants nothing.
    - Every [reap_every_s] the I/O loop enqueues an idle sweep on the
      control lane; sessions idle past [idle_timeout_s] are closed,
      aborting any transaction they left open.

    {2 Shutdown}

    {!shutdown} is graceful: stop accepting, refuse new frames with
    [Shutting_down], drain every queued request, close all sessions
    (aborting open transactions), then run [on_drain] — the hook the
    server binary uses to checkpoint attached WALs — and finally close
    the connections. It blocks until all of that is done and is safe to
    call from a signal-triggered context. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port (see {!port}) *)
  queue_capacity : int;  (** request-lane bound, default 64 *)
  idle_timeout_s : float;  (** session idle reap threshold, default 300 *)
  reap_every_s : float;  (** idle-sweep period, default 5 *)
  send_timeout_s : float;
      (** default 10: a connection whose unsent reply bytes make no
          progress for this long is closed ([<= 0.] disables) *)
  batch : bool;
      (** batched executor with pipelined group commit (default
          [true]); [false] = the serial executor *)
  max_batch : int;  (** most jobs drained per batch, default 32 *)
  executor_hook : (unit -> unit) option;
      (** test instrumentation: run by the executor before each request
          (lets tests hold the executor to force queue overflow) *)
  recorder_capacity : int;
      (** flight-recorder ring size, default 4096; [<= 0] disables the
          recorder (and [Tail] answers a typed error). The slow-query
          ring beside it holds 128 entries. *)
  slow_threshold_s : float;
      (** requests at or over this latency are captured into the
          slow-query log with statement + plan, default 0.1 *)
  checkpoint_path : string option;
      (** where online checkpoints write their snapshot; [None] (the
          default) puts it beside the WAL as [<wal>.snapshot] *)
  checkpoint_every_bytes : int;
      (** take an online checkpoint after the first batch that leaves
          the WAL at this many bytes or more; [0] (the default) disables
          the size trigger. The checkpoint runs whole between two
          batches; requests queue while it is written, for a time that
          grows with the database. *)
}

val default_config : config

type t

(** Bind, listen, and start the executor and the I/O loop (the flushers
    start on demand). Sets SIGPIPE to ignored for the process: a client
    that hangs up must never kill the server.
    [on_drain] runs during {!shutdown} after the queue is drained and
    all sessions are closed, before connections are torn down. *)
val create :
  ?config:config -> ?on_drain:(unit -> unit) -> Mlds.System.t ->
  (t, string) result

(** The actually-bound port (useful with [port = 0]). *)
val port : t -> int

(** Live sessions (for tests and the binary's status line). *)
val session_count : t -> int

val running : t -> bool

(** Graceful shutdown; idempotent; blocks until complete. *)
val shutdown : t -> unit

(** {2 The replication plane}

    All optional, all off by default. A primary enables shipping by
    setting the durability hook (publish after every covering fsync)
    and the [Repl_hello] handler (a standby's stream). A standby runs with
    {!set_read_only}[ true], applies received frames via {!inject}, and
    installs a {!set_promote_hook} for [Promote] / SIGUSR1. *)

(** [inject t f] runs [f] on the executor between two jobs, inside a
    batch's WAL group bracket. Rides the
    control lane: FIFO with other injected tasks, never droppable by
    admission control, wakes a blocked executor. Exceptions from [f] are
    swallowed. *)
val inject : t -> (unit -> unit) -> unit

(** Refuse mutating requests ([Submit] classified as a write, txn
    control, [Checkpoint]) with [Err Read_only]; reads, [Explain], and
    telemetry still flow. The standby flips this off at promotion. *)
val set_read_only : t -> bool -> unit

val read_only : t -> bool

(** Called right after each covering WAL fsync, on that log's flusher
    thread. Flushers of different logs may call it at once. A
    checkpoint's truncation calls nothing: it moves no WAL position
    ({!Mlds.Wal}'s positions are LSNs). *)
val set_durability_hook : t -> (unit -> unit) option -> unit

(** A standby's replication stream. Every function runs on the I/O
    loop. [receive payload] takes each frame the standby sends; [false]
    closes the connection. [pump send] queues, through [send] (one frame
    payload a call), what is due, and returns when it must run again
    ([Float.infinity] for no deadline; {!wake} makes it run sooner), or
    [None] to close the connection. [closed ()] runs once the connection
    is gone. *)
type stream = {
  receive : string -> bool;
  pump : (string -> unit) -> float option;
  closed : unit -> unit;
}

(** Handler for [Repl_hello], run on the I/O loop with the LSN the
    standby needs next: the connection's stream, or [None] to close it.
    Unset ⇒ [Repl_hello] is refused with [Bad_request]. *)
val set_repl_hello :
  t -> (pos:int -> boot:bool -> stream option) option -> unit

(** [wake t] makes the I/O loop run a pass, and so pump every stream,
    now. Safe from any thread. *)
val wake : t -> unit

(** Handler for [Promote] and for {!promote}: it starts the promotion
    and must not wait for it, since it runs on the I/O loop; it calls
    the continuation with the result once the promotion is done (on a
    standby, from the executor). Unset ⇒ [Promote] is refused with
    [Bad_request]. *)
val set_promote_hook :
  t -> (((string, string) result -> unit) -> unit) option -> unit

(** [promote t k] runs the promote hook, as [Promote] does; [k] gets
    [Error] at once when no hook is set. *)
val promote : t -> ((string, string) result -> unit) -> unit

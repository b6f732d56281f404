(** The MLDS network server: a TCP accept loop multiplexing many client
    sessions over one shared {!Mlds.System} — the server tier of the
    4-tiered client-server multidatabase shape (client / interface /
    kernel / store).

    {2 Threading model}

    - One {e reader thread per connection} parses frames off the socket.
      [Ping]/[Bye]/[Tail] are answered in place; everything else goes to
      the executor's bounded request queue. A full queue is answered
      immediately with the typed [Overloaded] response ({e admission
      control}: backpressure, never a stalled socket) and counted in
      [server.rejected_total].
    - One {e executor thread} owns the kernel's serial order and the
      session table, and executes every request, read or write. It
      drains the queue {e in batches} ({!Bounded_queue.pop_batch},
      observed in [server.batch_size]) and runs each job of a batch at
      its arrival position, one at a time — so results are the serial
      execution's by construction. The only parallelism below it is an
      MBDS database's broadcast: the executor and the idle workers of
      {!Mbds.Pool.shared} (one per spare core, none on one core) claim
      a Multi kernel's shares from one counter ({!Mbds.Pool.run}). A
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
      condition (executor or flusher) sends it. A client therefore
      never sees a write, its own or another session's, before it is
      durable. If the covering fsync fails,
      every reply waiting on it — reads included — leaves as an
      [Exec_error] instead; the flusher stays up and a later fsync
      retries. Each request runs under a [server.request] root span
      (attrs [session], [opcode], [request] — the wire request id, so a
      slow-query entry can name its span — and [peer]) and is timed into
      a per-opcode [server.request.<opcode>_s] histogram.
    - Online checkpoints advance one bounded slice between batches;
      the finish (snapshot rename + WAL truncate) first waits for the
      log's flusher to go idle. {!shutdown} drains the flushers the same way.

    {2 Telemetry plane}

    Every completed request is additionally recorded into a lock-free
    {!Obs.Recorder} ring (the {e flight recorder}) with its latency,
    encoded sizes, outcome and executor batch id; requests at or over
    [slow_threshold_s] also land in the slow-query log together with
    their statement text and the planner's [.explain] rendering. Clients
    read both over the wire: [Stats] returns uptime/sessions/queue state
    plus the full {!Obs.Metrics.snapshot} as JSON, and [Tail] drains
    recorder events / slow entries from client-supplied cursors. Both
    opcodes are session-less and travel the {e control lane}: the reader
    thread bypasses admission control for them and the executor answers
    them before queued user work, outside the outbox and never gated
    on a fsync — a polling dashboard cannot queue behind user traffic
    (and may therefore overtake data replies on the same connection;
    dashboards should poll on a dedicated connection).
      Sessions are {e connection-scoped}: a frame naming a session that
      was opened on a different connection is refused with
      [Bad_session], indistinguishable from an unknown id — session ids
      are small integers, not capabilities, so possession of an id from
      another connection grants nothing.
    - One {e reaper thread} periodically enqueues an idle sweep on the
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
  reap_every_s : float;  (** reaper period, default 5 *)
  send_timeout_s : float;
      (** [SO_SNDTIMEO] on accepted sockets, default 10; a client that
          stops reading gets its connection dropped instead of blocking
          the executor ([<= 0.] disables) *)
  batch : bool;
      (** batched executor with pipelined group commit (default
          [true]); [false] = the serial executor *)
  max_batch : int;  (** most jobs drained per batch, default 32 *)
  executor_hook : (unit -> unit) option;
      (** test instrumentation: run by the executor before each request
          (lets tests hold the executor to force queue overflow) *)
  recorder_capacity : int;
      (** flight-recorder ring size, default 4096; [<= 0] disables the
          recorder (and [Tail] answers a typed error) *)
  slow_log_capacity : int;  (** slow-query ring size, default 128 *)
  slow_threshold_s : float;
      (** requests at or over this latency are captured into the
          slow-query log with statement + plan, default 0.1 *)
  checkpoint_path : string option;
      (** where online checkpoints write their snapshot; [None] (the
          default) puts it beside the WAL as [<wal>.snapshot] *)
  checkpoint_every_bytes : int;
      (** start an online checkpoint once the WAL reaches this many
          bytes; [0] (the default) disables the size trigger *)
  checkpoint_every_s : float;
      (** start an online checkpoint once this many seconds have passed
          since the last one {e and} the WAL has grown since; [0.] (the
          default) disables the age trigger *)
  checkpoint_slice_records : int;
      (** records serialized per checkpoint slice between request
          batches, default 512 — the knob trading checkpoint duration
          against executor pauses *)
  shed_p99_target_s : float;
      (** latency-target admission control: when the rolling p99 of
          request queue-residency exceeds this, late [Submit]/[Explain]
          requests are shed with [Overloaded] instead of executed; [0.]
          (the default) disables shedding *)
}

val default_config : config

type t

(** Bind, listen, and start the accept/executor/reaper threads (the
    flushers start on demand). Sets SIGPIPE to ignored for the process:
    a client that hangs up must never kill the server.
    [on_drain] runs during {!shutdown} after the queue is drained and
    all sessions are closed, before connections are torn down. *)
val create :
  ?config:config -> ?on_drain:(unit -> unit) -> Mlds.System.t ->
  (t, string) result

(** The actually-bound port (useful with [port = 0]). *)
val port : t -> int

val system : t -> Mlds.System.t

(** The flight recorder, when enabled — the binary's in-process readers
    (none today; the wire opcodes are the public surface) and tests. *)
val recorder : t -> Obs.Recorder.t option

(** Live sessions (for tests and the binary's status line). *)
val session_count : t -> int

val running : t -> bool

(** Graceful shutdown; idempotent; blocks until complete. *)
val shutdown : t -> unit

(** {2 The replication plane}

    All optional, all off by default. A primary enables shipping by
    setting the durability hook (publish after every covering fsync),
    the truncate fence (bracket the checkpoint's WAL rename), and the
    [Repl_hello] handler (adopt a standby's socket). A standby runs with
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

(** Called right after each covering WAL fsync (on that log's flusher
    thread) and after every finished checkpoint (on the executor);
    invocations are serialized by an internal mutex. *)
val set_durability_hook : t -> (unit -> unit) option -> unit

(** Called with [true] before the checkpoint's WAL truncation and
    [false] once the post-truncation coordinates are published. *)
val set_truncate_fence : t -> (bool -> unit) option -> unit

(** Handler for [Repl_hello]: receives the raw connected socket (the
    reader thread has already exited; the callee owns the descriptor)
    plus the standby's coordinates. Unset ⇒ [Repl_hello] is refused with
    [Bad_request]. *)
val set_repl_hello :
  t ->
  (Unix.file_descr -> peer:string -> gen:int -> pos:int -> boot:bool -> unit)
  option ->
  unit

(** Handler for the [Promote] opcode (runs on the requesting
    connection's reader thread — never on the executor, which it blocks
    on). Unset ⇒ [Promote] is refused with [Bad_request]. *)
val set_promote_hook : t -> (unit -> (string, string) result) option -> unit

(** The write-ahead log: an append-only, per-database file of executed
    ABDL mutations, the durability substrate under the LIL→KMS→KC→KFS
    pipeline.

    {2 Frame format}

    Each entry is one {e frame}:
    {v
    +------------+------------+------------------+
    | length u32 | crc32  u32 | payload (length) |
    +------------+------------+------------------+
    v}
    both integers big-endian; [crc32] is the IEEE CRC-32 of the payload.
    The payload is the textual encoding of an {!entry} (the paper's ABDL
    surface syntax, so a log is human-readable with [xxd -c]).

    {2 Recovery rule}

    {!recover} reads frames front to back and {b stops at the first bad
    frame} — a truncated header, an implausible length, a short payload,
    a CRC mismatch, or an unparseable entry. Everything before the bad
    frame is returned; the torn tail is reported, not fatal: a crash mid
    append must never make the log unreadable (graceful degradation).

    {2 Durability contract}

    [append] writes the frame to the OS; [sync] makes everything appended
    so far durable (fsync) when the fsync knob is on. `Mlds.System`
    appends every mutation and syncs at transaction commit — so a
    transaction confirmed to the caller is on disk, and anything after
    the last sync may legitimately vanish in a crash.

    {2 Writing through the file-system seam}

    Every write, fsync, truncate and rename of a log goes through the
    {!Fs.t} it was opened with ({!Fs.unix} unless a test passes its own).
    The crash tests in [test/test_wal.ml] and the crash-state checker in
    [test/test_crash_states.ml] pass a recording {!Fs.t} that tears a
    write, fails an fsync, or stops the machine at a chosen operation,
    and recover what it left on disk. *)

(** Raised by a dead handle (one already closed, one whose log a failed
    {!truncate_to} replaced under it, or one whose file system stopped
    under it in a test's simulated crash), and by
    {!truncate_to} when the log's tail vanishes under it. *)
exception Crash of string

type entry =
  | Begin
  | Commit
  | Abort
  | Keyed_insert of Abdm.Store.dbkey * Abdm.Record.t
      (** an insert with its assigned database key — replay is key-exact *)
  | Replace of Abdm.Store.dbkey * Abdm.Record.t
  | Request of Abdl.Ast.request  (** DELETE / UPDATE (INSERT tolerated) *)
  | Generation of int
      (** log metadata, not workload: every truncate starts the new log
          with one of these so a snapshot stamped against generation [g]
          can tell whether the log it replays is the one it covered.
          {!recover} consumes the marker (reported as [gen]) and never
          returns it as an entry. *)

type t

(** [open_log ?fs ?fsync path] opens (creating if needed, with its
    directory entry made durable) the log for appending. [fsync] (default
    [true]) is the fsync-on-commit knob: when off, [sync] is a no-op and a
    crash may lose any suffix of the log. [fs] defaults to {!Fs.unix}.
    A temp file left beside the log by a crashed {!truncate_to} is
    removed (counted in [wal.stale_swap_removed]). *)
val open_log : ?fs:Fs.t -> ?fsync:bool -> string -> t

val path : t -> string

(** Frames appended through this handle (not counting pre-existing ones). *)
val appended : t -> int

(** The log's current generation: 0 for a virgin log, bumped by every
    {!truncate_to}. *)
val generation : t -> int

(** Byte length of the log right now — the position a snapshot captured
    at this instant covers. Pair with {!generation} to stamp snapshots;
    feed the pair back as [?skip] to {!recover}. *)
val position : t -> int

(** {!position} as of the last commit point ({!sync}): every committed
    mutation lies below it. An acknowledgement, or a read that may have
    observed a commit, is safe to release once this many bytes are
    durable. Frames of a transaction still open lie beyond it. *)
val committed_position : t -> int

(** Bytes known durable (covered by the last fsync). The replication
    shipper streams up to here and no further, so a standby never holds
    frames the primary itself could lose in a crash. *)
val synced_position : t -> int

(** The most recent truncation's coordinate map, [(new_gen, keep_from,
    base)]: old-log offset [keep_from] became offset [base] (the byte
    just past the generation marker) in generation [new_gen]. [None] for
    a handle that has never truncated. The shipper uses it to remap a
    standby's stream position across a checkpoint truncation instead of
    forcing a full snapshot bootstrap. *)
val last_truncation : t -> (int * int * int) option

(** [append t entry] writes one frame. Observed in the [wal.append_s]
    histogram. *)
val append : t -> entry -> unit

(** [sync t] marks a commit point and makes every appended frame durable
    (fsync) when the knob is on. Observed in the [wal.fsync_s] histogram.
    The fsync is skipped when nothing was appended since the last one (the
    syscall would be pure overhead), and {e deferred} inside a
    {!begin_group} bracket — see {2:group Group commit}. *)
val sync : t -> unit

(** [sync_to t pos] makes at least the first [pos] bytes durable: one
    fsync covering everything appended so far, skipped when [pos] is
    already durable or the knob is off. Safe to call from one thread
    while another appends — the server's flusher threads do exactly
    that. On success {!synced_position} advances; on failure it does
    not, and the error propagates: {!Crash} for a dead handle (including
    one that died during the call), [Unix.Unix_error] from the fsync
    itself. The handle stays usable after a [Unix_error]; a later call
    retries. *)
val sync_to : t -> int -> unit

(** {2:group Group commit}

    [begin_group t] starts a commit group: subsequent {!sync} calls are
    absorbed (each marks a commit point but issues no fsync) until
    [leave_group t] closes it. The caller then owes {e one} covering
    fsync for every absorbed commit, as
    [sync_to t (committed_position t)], and must withhold the absorbed
    acknowledgements until it succeeds — the batched executor brackets
    each request batch this way and hands that call to a flusher thread,
    so a batch of K committed transactions costs one fsync instead of K.
    The covering [sync_to] observes the number of commits it amortised in
    the [wal.group_commit_size] histogram, and raises {!Crash} if the
    handle died meanwhile (every absorbed commit is then
    unacknowledged). *)

val begin_group : t -> unit

val leave_group : t -> unit

(** Real fsync syscalls issued through this handle (the dirty-flag and
    group-commit tests count these). *)
val fsyncs : t -> int

val fsync_enabled : t -> bool

(** [truncate_to t ~keep_from] truncates the log to a checkpoint
    position while preserving the tail appended after the snapshot was
    captured: the replacement log (next-generation marker + the bytes
    from [keep_from] to the current end) takes the old one's place
    through {!Fs.replace} — a crash leaves either the complete old log or
    the complete new one, never a mix. [keep_from] ≥ the current length
    empties the log (the snapshot now carries the state) and starts the
    next generation in place, durable before returning. Must not be
    called inside
    a commit group. A replace that fails after its rename leaves the
    handle dead; one that fails before leaves it on the old log. *)
val truncate_to : t -> keep_from:int -> unit

(** [close t] syncs and closes. Idempotent. *)
val close : t -> unit

(** {2 Recovery} *)

type recovery = {
  entries : entry list;  (** the valid prefix, in append order *)
  frames : int;  (** [List.length entries] *)
  torn : bool;  (** stopped at a bad frame before end of file *)
  valid_bytes : int;  (** length of the clean prefix *)
  gen : int;  (** the log's generation marker (0 when absent) *)
  skipped : int;  (** stale frames dropped because of [?skip] *)
  trimmed : bool;  (** [?trim] cut a torn tail back to [valid_bytes] *)
  trim_failed : bool;  (** the cut was requested, needed, and failed *)
}

(** [recover ?trim ?skip path] reads the valid prefix of a log (an
    absent file is an empty log). Bumps the [wal.recovered_frames] and
    [wal.torn_tail] counters.

    [?skip:(gen, pos)] is the crash-window guard: a snapshot stamped
    with the log's generation and position at capture time passes the
    stamp here, and every data frame that ends within the first [pos]
    bytes of a generation-[gen] log is dropped as already-in-snapshot
    (counted in [skipped]). A generation mismatch means the log was
    truncated after the stamp was taken, so nothing is skipped.

    [?trim] (default false) physically truncates a torn tail back to
    [valid_bytes], so later appends cannot land after garbage where
    recovery would never reach them. A failed trim is surfaced via
    [trim_failed] and the [wal.trim_failed] counter — never silently
    ignored. *)
val recover : ?trim:bool -> ?skip:int * int -> string -> recovery

(** {2 Tailing (the replication shipper's read side)} *)

(** [read_range path ~pos ~len] reads exactly [len] bytes at byte offset
    [pos] through a fresh descriptor (never disturbing the writing
    handle). [None] if the file is missing or shorter than [pos + len] —
    the caller raced a truncation rename and must re-resolve. *)
val read_range : string -> pos:int -> len:int -> string option

(** [decode_frames data] decodes [data] as a sequence of complete frames.
    [None] unless the bytes are {e exactly} a whole number of valid
    frames — the shipper's alignment check against truncation races. *)
val decode_frames : string -> entry list option

(** One frame's on-disk bytes (length + CRC header + payload). *)
val encode_frame : entry -> bytes

(** {2 Encoding (exposed for tests and the snapshot checksum)} *)

val encode_entry : entry -> string

val decode_entry : string -> (entry, string) result

(** IEEE CRC-32 (the one zlib uses), returned in [0, 0xFFFFFFFF]. *)
val crc32 : string -> int

(** [crc32_bytes b ~pos ~len] is the CRC-32 of [len] bytes of [b] from
    [pos]. Raises [Invalid_argument] if the range is outside [b]. *)
val crc32_bytes : bytes -> pos:int -> len:int -> int

(** [crc32_update crc b ~pos ~len] continues [crc], the CRC-32 of some
    bytes [s], over [len] bytes of [b] from [pos]: the result is the
    CRC-32 of [s] followed by those bytes, and [crc32_update 0] is
    {!crc32_bytes}. A stream is checksummed one piece at a time without
    holding it whole. Raises [Invalid_argument] if the range is outside
    [b]. *)
val crc32_update : int -> bytes -> pos:int -> len:int -> int

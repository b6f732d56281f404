(** Database persistence: atomic snapshots plus write-ahead-log replay.

    A saved database is a plain-text file holding the model, the kernel
    topology, the defining DDL, and the instance as a {e keyed} ABDL
    INSERT script — each record under the database key it held when
    saved, sorted by key, so a restore reproduces dbkeys (CODASYL
    currency indicators, DL/I positions) and backend placement exactly,
    and [dump ∘ restore ∘ dump] is byte-identical.

    Format (v2):
    {v
    %MLDS 2
    %CRC 1f2e3d4c
    %MODEL functional
    %NAME university
    %KERNEL backends=3 placement=round-robin
    %DDL
    DATABASE university
    ...
    %DATA
    @1 INSERT (<FILE, person>, <person, 17>, ...)
    ...
    v}
    [%CRC] is the IEEE CRC-32 (hex) of every byte after its own line;
    {!load} rejects a mismatch. Legacy [%MLDS 1] files (unkeyed data, no
    checksum) still load, with fresh keys.

    {2 Durability}

    {!save} writes atomically: a temp file in the destination directory,
    fsynced, then renamed over the target — a crash mid-save leaves the
    old file intact, never a truncated one. {!load} auto-replays a
    sibling [<file>.wal] if one exists; recovery = latest snapshot + the
    committed prefix of the log. {!checkpoint} makes the snapshot durable
    {e first}, then empties the attached log. *)

(** [save t ~db ~file] writes the named database, atomically. *)
val save : System.t -> db:string -> file:string -> (unit, string) result

(** [load t ~file] defines the saved database (under its saved name, on
    its saved kernel topology) in [t] and replays the INSERT script, then
    auto-replays [<file>.wal] if present. Fails if the name is taken. *)
val load : System.t -> file:string -> (unit, string) result

(** [dump t ~db] / [restore t ~text] — the same, via strings (no WAL
    replay). [?stamp:(gen, pos)] embeds a [%WAL] header recording which
    log generation and byte position the snapshot covers; {!load_report}
    feeds it back to recovery so already-covered frames are skipped. *)
val dump : ?stamp:int * int -> System.t -> db:string -> (string, string) result

val restore : System.t -> text:string -> (unit, string) result

(** [restore_data t ~db ~text] restores a snapshot into a database that
    may already be live: when [db] is undefined this is {!restore}; when
    it exists, every record is dropped and the snapshot's records are
    re-inserted key-exactly (schema assumed unchanged, WAL hook silenced
    for the duration). The standby's snapshot-bootstrap path. *)
val restore_data : System.t -> db:string -> text:string -> (unit, string) result

(** {2 Recovery} *)

type recovery_report = {
  wal_file : string;
  frames : int;  (** valid frames recovered from the log *)
  torn : bool;  (** the log had a torn tail (stopped at a bad frame) *)
  applied : int;  (** mutations applied (committed or unbracketed) *)
  dropped : int;  (** mutations discarded (aborted or unterminated txns) *)
  skipped : int;  (** stale frames already covered by the snapshot *)
  trim_failed : bool;  (** a requested torn-tail trim failed (warning) *)
}

(** [replay_wal ?skip ?trim t ~db ~file] applies the committed prefix of
    a write-ahead log to [db]: entries inside [BEGIN]…[COMMIT] apply as
    a group at the commit; aborted and unterminated transactions are
    dropped; mutations outside any bracket apply immediately. Runs
    inside an [mlds.recover] tracing span. Any WAL hook attached to [db]
    is silenced during the replay (recovery must not re-log). [?skip]
    and [?trim] are forwarded to {!Wal.recover}: [skip] drops frames a
    stamped snapshot already covers, [trim] (default false) cuts a torn
    tail back to the valid prefix. *)
val replay_wal :
  ?skip:int * int ->
  ?trim:bool ->
  System.t ->
  db:string ->
  file:string ->
  (recovery_report, string) result

(** [apply_wal ?on_entry kernel ~txn entries] applies decoded log entries
    to [kernel], the one apply path of recovery and of a standby:
    mutations outside any [BEGIN]…[COMMIT] apply at once, a bracket's
    mutations apply as a group at its [COMMIT], an [ABORT]ed bracket is
    dropped. [txn] holds the open bracket's entries between calls
    ([None]: none open): a standby fed in chunks keeps it for the next
    chunk, while {!replay_wal} drops what is left at the end of the log.
    [on_entry] runs once per entry. Returns the mutations applied and
    dropped. The caller silences any WAL hook on [kernel]. *)
val apply_wal :
  ?on_entry:(unit -> unit) ->
  Mapping.Kernel.t ->
  txn:Wal.entry list option ref ->
  Wal.entry list ->
  int * int

type load_outcome = {
  loaded_db : string;
  loaded_model : string;
  recovery : recovery_report option;  (** [Some] when [<file>.wal] existed *)
}

(** {!load}, reporting what was restored and recovered. *)
val load_report : System.t -> file:string -> (load_outcome, string) result

(** {2 Checkpointing}

    [checkpoint t ~db ~file] saves a durable snapshot stamped with the
    attached WAL's (generation, position), then truncates the log to
    that position — frames appended after the capture survive under the
    next generation. A crash between the save and the truncate is
    harmless: on load, the stamp makes replay skip the frames the
    snapshot already covers (no double-apply), while frames past the
    stamped position still replay.

    The incremental form serializes the state in bounded slices so a
    server can interleave checkpoint work with request batches:
    {!checkpoint_begin} captures the state (records are immutable, so
    concurrent writes replace map bindings without disturbing the
    capture), {!checkpoint_slice} serializes up to [max_records] of it,
    and {!checkpoint_finish} writes the snapshot atomically and
    truncates the log. [checkpoint] = begin + finish in one step. *)

val checkpoint : System.t -> db:string -> file:string -> (unit, string) result

(** An in-flight incremental checkpoint. *)
type ckpt

val checkpoint_begin :
  System.t -> db:string -> file:string -> (ckpt, string) result

(** Serialize up to [max_records] more captured records. [`More n]: [n]
    records still pending; [`Ready]: capture fully serialized, call
    {!checkpoint_finish}. *)
val checkpoint_slice : ckpt -> max_records:int -> [ `More of int | `Ready ]

(** Drain any remaining records, write the snapshot atomically, then
    truncate the WAL to the captured position (keeping the tail appended
    since the capture). *)
val checkpoint_finish : ckpt -> (unit, string) result

(** {2 Fault injection (tests)} *)

(** Arm a one-shot fault in the next {!save}: it dies after writing half
    the snapshot to the temp file. The target file must be left intact. *)
val inject_save_failure : unit -> unit

(** Arm a one-shot fault in the next {!checkpoint} /
    {!checkpoint_finish}: it dies in the exact window between the
    durable snapshot save and the WAL truncate — the checkpoint
    crash-window regression hook. *)
val inject_checkpoint_crash : unit -> unit

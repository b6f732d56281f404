(** The Multi-Lingual Database System (Fig. 1.1): one kernel database
    system shared by all language interfaces, a registry of databases in
    the four user data models, and per-user sessions pairing a language
    with a target database.

    The language interface layer (LIL) logic of Chapter V lives in
    {!open_handle}: a CODASYL-DML session may target a {e network}
    database directly, or a {e functional} database — in which case the
    schema transformer output (computed when the database was defined) is
    used and the user manipulates the functional data with CODASYL-DML
    transactions, the thesis's contribution. *)

type t

(** [create ?backends ?placement ()] — a fresh MLDS.
    [backends >= 1] puts every database on an MBDS with that many
    backends; otherwise each database uses a single-store kernel.
    [placement] is forwarded to every MBDS controller the system creates
    (see {!Mbds.Controller.create}), and so is [pool] (default: the
    controller's); both are ignored for single-store kernels. [fs]
    (default {!Fs.unix}) is the file system every attached WAL, every
    [Persist] snapshot and checkpoint, and a standby of this system
    write through. *)
val create :
  ?backends:int ->
  ?placement:Mbds.Controller.placement ->
  ?pool:Mbds.Pool.t ->
  ?fs:Fs.t ->
  unit ->
  t

(** The file system given to {!create}. *)
val fs : t -> Fs.t

(** A per-database kernel topology, overriding the system-wide defaults
    for one [define_*] call. Snapshot restore uses this to rebuild a
    database on the same backend layout it was saved from, so keyed
    re-insertion reproduces the record placement exactly. *)
type kernel_spec = {
  spec_backends : int;  (** [0] = single-store kernel *)
  spec_placement : Mbds.Controller.placement option;
}

(** The spec describing [db]'s current kernel ([None] for an unknown
    database) — what {!Persist} writes into the snapshot header. *)
val kernel_spec_of : t -> string -> kernel_spec option

(** [define_functional t ~name ~ddl rows] parses the Daplex schema, runs
    the functional→network transformation, and loads the instance rows as
    an AB(functional) database. [kernel] overrides the system-wide kernel
    topology for this database (all four [define_*] take it). *)
val define_functional :
  ?kernel:kernel_spec ->
  t -> name:string -> ddl:string -> Daplex.University.row list ->
  (unit, string) result

(** [define_network t ~name ~ddl] parses a network schema; records are
    loaded through CODASYL-DML STORE/CONNECT transactions. *)
val define_network :
  ?kernel:kernel_spec -> t -> name:string -> ddl:string -> (unit, string) result

(** [define_relational t ~name] opens an empty relational database; tables
    are created with SQL CREATE TABLE. *)
val define_relational : ?kernel:kernel_spec -> t -> name:string -> (unit, string) result

(** [define_hierarchical t ~name ~ddl] parses a hierarchical schema;
    segments are loaded through DL/I ISRT calls. *)
val define_hierarchical :
  ?kernel:kernel_spec -> t -> name:string -> ddl:string -> (unit, string) result

(** {2 Write-ahead logging}

    Attaching a WAL subscribes to the database kernel's mutation event
    stream (see {!Mapping.Kernel.set_wal_hook}): every executed mutation
    is appended to the log, and the log is fsynced when the outermost
    transaction commits — or immediately for a stand-alone mutation — so a
    request confirmed to the caller is durable. Recovery is
    [Persist.load] (snapshot) + [Persist.replay_wal] (the committed log
    suffix). *)

(** [attach_wal t ~db ~file] opens (or creates) [file] as [db]'s
    write-ahead log and starts logging, with an fsync on every commit.
    Replaces (and closes) any WAL already attached to [db]. A log in the
    older format that {!Wal.Old_format} names is an [Error]. *)
val attach_wal : t -> db:string -> file:string -> (Wal.t, string) result

(** [detach_wal t ~db] stops logging and closes the log. No-op if no WAL
    is attached. *)
val detach_wal : t -> db:string -> unit

val wal_of : t -> db:string -> Wal.t option

(** (database name, data model name) pairs. *)
val databases : t -> (string * string) list

val kernel_of : t -> string -> Mapping.Kernel.t option

(** The defining DDL of a database (relational databases reflect tables
    created since definition). *)
val schema_ddl : t -> string -> string option

type language =
  | L_codasyl
  | L_daplex
  | L_sql
  | L_dli
  | L_abdl  (** the kernel language, usable against any database *)

val language_of_string : string -> language option

val language_to_string : language -> string

type session =
  | S_codasyl of Codasyl_dml.Session.t
  | S_daplex of Daplex_dml.Engine.t
  | S_sql of Relational.Engine.t
  | S_dli of Hierarchical.Engine.t
  | S_abdl of Mapping.Kernel.t

(** {2 Session handles}

    A handle is the session-scoped unit the front ends (the CLI REPL and
    the network server) hold per user connection: its own language
    interface state — a fresh CODASYL Currency Indicator Table, User Work
    Area and result buffers per handle, so two handles never observe each
    other's currency — plus an explicit {e transaction scope}. The
    kernel's undo journal is single-level per database, so while one
    handle's transaction is open every other handle targeting that
    database is fenced off with {!handle_error.H_busy} (no dirty reads,
    no writes hostage to a foreign abort); the fence lifts at
    commit/abort. {!close_handle} aborts any open transaction — the
    disconnect-must-abort contract of the server tier. *)

type handle

type handle_error =
  | H_closed  (** the handle was closed *)
  | H_busy of int
      (** another handle (carrying this id) holds the database's open
          transaction *)
  | H_no_txn  (** commit/abort with no open transaction *)
  | H_txn_open  (** begin while this handle's transaction is open *)
  | H_parse of string  (** submission failed to parse *)

val handle_error_to_string : handle_error -> string

(** [open_handle ?user t language ~db] opens a fresh session wrapped in
    a new handle. Every call returns a distinct handle with distinct
    interface state, even for the same user. It errors when no interface
    exists from [language] to [db]'s model. The supported pairs:
    CODASYL-DML→network, CODASYL-DML→functional (via the schema
    transformer — the thesis's contribution), Daplex→functional,
    SQL→relational, SQL→hierarchical and SQL→functional (both
    read-only, over the {!Views} relational derivations — the §VII
    companion directions), DL/I→hierarchical, and ABDL→anything. *)
val open_handle :
  ?user:string -> t -> language -> db:string -> (handle, string) result

val handle_id : handle -> int

val handle_user : handle -> string

val handle_language : handle -> language

val handle_db : handle -> string

(** The wrapped session (for statistics and currency displays). *)
val handle_session : handle -> session

(** [submit_handle h src] — LIL: parse the source in the handle's
    language, translate and execute through KMS/KC, and format the
    results (KFS). Statement-level errors are reported inline in the
    output; the handle's state gives the errors: [H_closed] after
    {!close_handle}, [H_busy] while another handle's transaction is open
    on the database, [H_parse] for parse failures.
    KFS writes the reply into a buffer the handle keeps from its first
    call to {!close_handle} (one over 1 MiB is not kept), so a session
    that submits many statements grows no fresh buffer each time; the
    returned string is a copy.

    When tracing is enabled ({!Obs.Span.set_enabled}), each submission
    records an [mlds.submit] span (attribute [language]) with children
    [lil.parse], [kms.translate+kc.execute] — under which every kernel
    request opens a [kernel.run] span, and each MBDS broadcast its
    per-backend children — and [kfs.format]. *)
val submit_handle : handle -> string -> (string, handle_error) result

(** [submit_handle_into buf h src] is {!submit_handle} with the reply
    left in [buf] (cleared first) instead of returned: KFS writes it
    there ({!Kfs}), and no reply string is made. The server's executor
    reuses one buffer for every reply, so a handle it submits through
    never makes a buffer of its own. *)
val submit_handle_into :
  Buffer.t -> handle -> string -> (unit, handle_error) result

(** [explain_handle h src] parses [src] as ABDL — the kernel language,
    whatever the handle's session language — and renders the access plan
    the store would use for each selection in it ({!Mapping.Kernel.explain}),
    without executing anything. Guarded like {!submit_handle} ([H_closed],
    [H_busy], [H_parse]). Statements with no selection (e.g. a lone
    INSERT) explain to a "nothing to explain" notice. *)
val explain_handle : handle -> string -> (string, handle_error) result

(** [begin_txn h] opens an explicit transaction scoped to this handle:
    subsequent submissions journal into it, and {!commit_txn} /
    {!abort_txn} make them permanent / undo them all (WAL-bracketed when
    a log is attached, so recovery honours the same boundary). *)
val begin_txn : handle -> (unit, handle_error) result

val commit_txn : handle -> (unit, handle_error) result

val abort_txn : handle -> (unit, handle_error) result

(** [true] iff [h] holds its database's open transaction. *)
val in_txn : handle -> bool

(** The handle id holding [db]'s open transaction, if any. Test seam:
    the tests read the transaction fence through it. *)
val txn_owner : t -> db:string -> int option

(** Abort any open transaction, fence the handle and drop its reply
    buffer. Idempotent. *)
val close_handle : handle -> unit

(** {2 Read/write classification}

    [`Read] is a promise that executing [src] on [h] mutates no database
    state; everything else — and everything uncertain: a parse error, a
    closed handle — is [`Write]. A warm standby's server uses this as
    its read-only gate. Session-private state (CODASYL currency, the
    UWA, DL/I position) does not make a statement a write. The statement
    is parsed here, and parsed again when it is submitted. *)
val classify_handle : handle -> string -> [ `Read | `Write ]

(** {2 Group commit}

    [wal_group_begin t] puts every WAL attached to [t] into group-commit
    mode ({!Wal.begin_group}): commit-time fsyncs are deferred.
    [wal_group_end t] leaves group mode {e without} fsyncing
    ({!Wal.leave_group}) and returns every log whose last commit point is
    not yet durable, paired with that position
    ({!Wal.committed_position}). The caller owes each one
    [Wal.sync_to wal pos] and must withhold the acknowledgements absorbed
    in between until it succeeds — if it fails, those commits may not be
    durable. The server executor brackets each request batch with the
    pair and hands the owed fsyncs to per-WAL flusher threads. *)
val wal_group_begin : t -> unit

val wal_group_end : t -> (Wal.t * int) list

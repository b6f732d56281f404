(** The Multi-Lingual Database System (Fig. 1.1): one kernel database
    system shared by all language interfaces, a registry of databases in
    the four user data models, and per-user sessions pairing a language
    with a target database.

    The language interface layer (LIL) logic of Chapter V lives in
    {!open_session}: a CODASYL-DML session may target a {e network}
    database directly, or a {e functional} database — in which case the
    schema transformer output (computed when the database was defined) is
    used and the user manipulates the functional data with CODASYL-DML
    transactions, the thesis's contribution. *)

type t

(** [create ?backends ?placement ()] — a fresh MLDS.
    [backends >= 1] puts every database on an MBDS with that many
    backends; otherwise each database uses a single-store kernel.
    [placement] is forwarded to every MBDS controller the system creates
    (see {!Mbds.Controller.create}); it is ignored for single-store
    kernels. [stmt_cache_capacity] bounds the statement
    cache (default 512 entries; [0] disables it). [fs] (default
    {!Fs.unix}) is the file system every attached WAL, every
    [Persist] snapshot and checkpoint, and a standby of this system
    write through. *)
val create :
  ?backends:int ->
  ?placement:Mbds.Controller.placement ->
  ?stmt_cache_capacity:int ->
  ?fs:Fs.t ->
  unit ->
  t

(** The file system given to {!create}. *)
val fs : t -> Fs.t

(** An already-parsed program — what the statement cache stores. The
    constructors are deliberately not exposed: callers interact with the
    cache only through {!submit_handle} (which consults it) and
    {!stmt_cache} (for statistics). *)
type parsed

(** The system's statement cache: a bounded LRU mapping
    (language, statement text) to the parse result, consulted once by
    each {!submit_handle} (and by {!classify_handle}) so the loadgen's
    repeated statements skip the LIL front end. Exposed for statistics
    and tests. *)
val stmt_cache : t -> parsed Stmt_cache.t

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

(** [attach_wal ?fsync t ~db ~file] opens (or creates) [file] as [db]'s
    write-ahead log and starts logging. Replaces (and closes) any WAL
    already attached to [db]. [fsync] is the fsync-on-commit knob
    (default [true]). *)
val attach_wal : ?fsync:bool -> t -> db:string -> file:string -> (Wal.t, string) result

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

(** [open_session t language ~db] — errors when no interface exists from
    [language] to [db]'s model. The supported pairs: CODASYL-DML→network,
    CODASYL-DML→functional (via the schema transformer — the thesis's
    contribution), Daplex→functional, SQL→relational,
    SQL→hierarchical and SQL→functional (both read-only, over the
    {!Views} relational derivations — the §VII companion directions),
    DL/I→hierarchical, and ABDL→anything. *)
val open_session : t -> language -> db:string -> (session, string) result

(** [open_user_session t ~user language ~db] — the multi-user entry point
    ([user_info], §IV.B): each (user, language, database) triple gets one
    session, created on first use and returned thereafter, so a user's
    currency indicators, work area, and request buffers survive across
    submissions while staying isolated from other users'. *)
val open_user_session :
  t -> user:string -> language -> db:string -> (session, string) result

(** Active user sessions as (user, language name, database) triples. *)
val user_sessions : t -> (string * string * string) list

(** [submit session src] — LIL: parse the source in the session's language,
    translate and execute through KMS/KC, and format the results (KFS).
    Statement-level errors are reported inline in the output; [Error] is
    reserved for parse failures.

    When tracing is enabled ({!Obs.Span.set_enabled}), each submission
    records an [mlds.submit] span (attribute [language]) with children
    [lil.parse], [kms.translate+kc.execute] — under which every kernel
    request opens a [kernel.run] span, and each MBDS broadcast its
    per-backend children — and [kfs.format]. *)
val submit : session -> string -> (string, string) result

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

(** [open_handle ?user t language ~db] opens a fresh session (same
    language/database pairs as {!open_session}) wrapped in a new handle.
    Every call returns a distinct handle with distinct interface state,
    even for the same user. *)
val open_handle :
  ?user:string -> t -> language -> db:string -> (handle, string) result

val handle_id : handle -> int

val handle_user : handle -> string

val handle_language : handle -> language

val handle_db : handle -> string

(** The wrapped session (for statistics and currency displays). *)
val handle_session : handle -> session

val handle_closed : handle -> bool

(** [submit_handle h src] is {!submit} guarded by the handle's state:
    [H_closed] after {!close_handle}, [H_busy] while another handle's
    transaction is open on the database, [H_parse] for parse failures. *)
val submit_handle : handle -> string -> (string, handle_error) result

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

(** The handle id holding [db]'s open transaction, if any. *)
val txn_owner : t -> db:string -> int option

(** Abort any open transaction and fence the handle. Idempotent. *)
val close_handle : handle -> unit

(** {2 Read/write classification}

    [`Read] is a promise that executing [src] on [h] mutates no database
    state; everything else — and everything uncertain: a parse error, a
    closed handle — is [`Write]. A warm standby's server uses this as
    its read-only gate. Session-private state (CODASYL currency, the
    UWA, DL/I position) does not make a statement a write. Parsing done
    here is served from (and primes) the statement cache. *)
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

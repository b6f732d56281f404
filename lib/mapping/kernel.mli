(** The kernel database system (KDS) seen by the kernel controllers: either
    a single ABDM store or an MBDS controller fronting several backends.
    The language interfaces are written against this abstraction, so every
    translation runs unchanged on both (paper Fig. 1.2: one KDS shared by
    all language interfaces).

    The kernel is also the durability choke point: every mutation executed
    through it — whichever language interface issued it — can be observed
    by a single {e WAL hook} ({!set_wal_hook}), which `Mlds.System` uses to
    write the per-database write-ahead log. It is likewise the one place a
    statement's ABDL translation is observed: {!collect} taps the requests
    the language interfaces issue through it. *)

type kds =
  | Single of Abdm.Store.t
  | Multi of Mbds.Controller.t

type t

(** The underlying store topology (for statistics displays and tests). *)
val kds : t -> kds

(** One executed mutation, or a transaction bracket from {!atomically}.
    Events are emitted after the in-memory mutation succeeded, on the
    orchestrating domain, in execution order — so appending them to a log
    and replaying the committed prefix reproduces the store exactly. *)
type event =
  | Ev_begin
  | Ev_commit
  | Ev_abort
  | Ev_insert of Abdm.Store.dbkey * Abdm.Record.t
      (** carries the {e assigned} database key, so replay is key-exact *)
  | Ev_replace of Abdm.Store.dbkey * Abdm.Record.t
  | Ev_delete of Abdm.Query.t
  | Ev_update of Abdm.Query.t * Abdm.Modifier.t list

(** [set_wal_hook t hook] subscribes [hook] to the mutation event stream
    (replacing any previous subscriber; [None] unsubscribes). The hook
    runs synchronously inside the mutating call: raising from it aborts
    that call after the in-memory mutation — used by the fault-injection
    harness to simulate a crash between execution and logging. *)
val set_wal_hook : t -> (event -> unit) option -> unit

val wal_hook : t -> (event -> unit) option

(** [collect t f] runs [f] and returns its result with the ABDL requests
    issued through [t] meanwhile, oldest first: the statement/request
    correspondence of paper §III.A. One request is kept per {!run}, per
    {!select} (as [RETRIEVE (q) (ALL)]) and per {!insert_unique} (as
    [INSERT record], kept also when the insert is refused); key-addressed
    calls ({!get}, {!replace}) and the other direct calls are not
    requests and are not kept. The tap is removed when [f] returns or
    raises. Calls of [collect] do not nest. *)
val collect : t -> (unit -> 'a) -> 'a * Abdl.Ast.request list

val single : ?name:string -> unit -> t

(** [multi ?name ?placement ?pool n] — an MBDS with [n] backends.
    [placement] and [pool] are forwarded to {!Mbds.Controller.create},
    so callers (the CLI, the benchmarks) can select skewed placement or
    a worker-less pool without constructing the controller themselves. *)
val multi :
  ?name:string ->
  ?placement:Mbds.Controller.placement ->
  ?pool:Mbds.Pool.t ->
  int ->
  t

val insert : t -> Abdm.Record.t -> Abdm.Store.dbkey

(** [insert_unique t record probes] stores [record] only if no live
    record matches any query in [probes], and returns its key; otherwise
    it stores nothing, emits no event and returns [None]. Each probe is a
    direct store selection (on a multi-backend kernel, one backend at a
    time on the caller, without a broadcast). The check and the insert
    are one call: under the kernel's one-writer contract no other
    request falls between them.
    Traced as a [kernel.run] span of request kind [insert]. *)
val insert_unique :
  t -> Abdm.Record.t -> Abdm.Query.t list -> Abdm.Store.dbkey option

(** [insert_keyed t key record] stores a record under an externally
    assigned database key (snapshot restore / WAL replay path). Raises
    [Invalid_argument] if [key] is already live. *)
val insert_keyed : t -> Abdm.Store.dbkey -> Abdm.Record.t -> unit

(** [select t query] is [RETRIEVE (query) (ALL)] without row shaping:
    the matching (dbkey, record) pairs in ascending-dbkey order, the
    order the rows of {!run} come in. Traced as a [kernel.run] span of
    request kind [retrieve]. *)
val select : t -> Abdm.Query.t -> (Abdm.Store.dbkey * Abdm.Record.t) list

(** [explain t query] renders the access plan the store(s) would use for
    [query] — {!Abdm.Store.explain} for a single KDS, per-backend sections
    via {!Mbds.Controller.explain} for a partitioned one. Read-only. *)
val explain : t -> Abdm.Query.t -> string

val delete : t -> Abdm.Query.t -> int

val update : t -> Abdm.Query.t -> Abdm.Modifier.t list -> int

val get : t -> Abdm.Store.dbkey -> Abdm.Record.t option

(** [replace t key record] overwrites one record by database key (the
    engines' key-addressed writes and WAL replay). Raises [Not_found] if
    [key] is not live. *)
val replace : t -> Abdm.Store.dbkey -> Abdm.Record.t -> unit

(** [run t request] executes one ABDL request, inside a [kernel.run]
    tracing span carrying the request kind. *)
val run : t -> Abdl.Ast.request -> Abdl.Exec.result

(** [to_seq t] is every record live at the call, in ascending-dbkey
    order, without a query: the snapshot writer's walk. *)
val to_seq : t -> (Abdm.Store.dbkey * Abdm.Record.t) Seq.t

(** [next_key t] is the database key the next {!insert} will assign. *)
val next_key : t -> Abdm.Store.dbkey

val count : t -> string -> int

val size : t -> int

(** {2 Explicit transaction control}

    The session-scoped entry points used by [Mlds.System] handles (and,
    through them, the network server): [begin_transaction] opens an
    undo-journaled transaction bracketed by [Ev_begin], [commit] /
    [rollback] close it with [Ev_commit] / [Ev_abort]. Brackets nest —
    only the outermost pair touches the store journal and the WAL, so an
    engine-internal {!atomically} (e.g. a multi-set CONNECT) composes
    with an explicit session transaction. [commit]/[rollback] with no
    open transaction raise [Invalid_argument]. *)

val begin_transaction : t -> unit

val commit : t -> unit

val rollback : t -> unit

(** [atomically t f] runs [f] inside an undo-journaled transaction: on
    [Ok] the work commits, on [Error] (or an exception) every change [f]
    made through this kernel is rolled back. The paper defines a
    transaction as "the grouping together of two or more sequentially
    executed requests" (§II.C.2); this provides its all-or-nothing
    execution.

    With a WAL hook attached, the transaction is bracketed by
    [Ev_begin]/[Ev_commit] (or [Ev_abort]); the subscriber fsyncs on
    commit, and the caller observes [Ok] only after that returns — so a
    transaction confirmed to the caller is durable. *)
val atomically : t -> (unit -> ('a, 'e) result) -> ('a, 'e) result

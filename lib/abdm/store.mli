(** The ABDM record store — the storage engine of the kernel database
    system (KDS). Records are grouped into files, receive a unique integer
    {e database key} on insertion (the dbkey that the CODASYL-DML currency
    indicators of Chapter VI point at), and are served by ordered
    per-(file, attribute) secondary indexes — equality {e and} range
    ([<] [<=] [>] [>=]) predicates — chosen per DNF disjunct by a
    cost-based planner (see {!explain} and {!Plan}).

    Indexes are created lazily: an attribute starts unindexed, every
    selection that could have used its index bumps a heat counter, and
    crossing [auto_index_threshold] builds the index with one file scan.
    From then on it is maintained on every mutation.

    {2 Ownership contract}

    A store is {b not} internally synchronised: one reader or mutator
    uses it at a time. That one is the server's executor for a
    single-store kernel, or, when the store is an MBDS backend
    partition, the holder of its controller's lock for that backend.
    Every mutating operation ([insert]/[insert_keyed]/[delete]/[update]/
    [replace]/[clear]/transaction control) and every broadcast [select]
    runs while holding it, on whichever domain — the caller or a pool
    worker — runs that share; the lock's release-acquire pair publishes
    the previous holder's writes to the next. The whole store state
    (records, per-file sets, index directory) is one immutable value
    behind a single atomic and is published by compare-and-set, and the
    observability counters (scan tallies, request timing) are atomics,
    so a read-only operation ([select]/[get]/[count]/[to_seq]/the stat
    accessors) that does overlap another reader is never a data race. *)

type dbkey = int

type t

(** [create ()] is an empty store. [name] labels the store in statistics
    output. [indexed:false] disables the per-(file, attribute) secondary
    indexes, forcing every selection to scan its file — the ablation knob
    for measuring what the directory buys (the paper's ABDM is built
    around directory-managed keywords). [auto_index_threshold] (default 3,
    clamped to at least 1) is how many planner misses an attribute
    tolerates before its index is auto-built. *)
val create :
  ?name:string -> ?indexed:bool -> ?auto_index_threshold:int -> unit -> t

val name : t -> string

val auto_index_threshold : t -> int

(** [insert store record] stores the record and returns its database key.
    Keys are assigned in strictly increasing order, so ascending dbkey is
    insertion order — the order FIND FIRST/NEXT/PRIOR/LAST traverse. *)
val insert : t -> Record.t -> dbkey

(** [insert_keyed store key record] stores a record under an externally
    assigned database key — the MBDS controller assigns global keys and
    routes records to backend stores. Raises [Invalid_argument] if [key]
    is already live. *)
val insert_keyed : t -> dbkey -> Record.t -> unit

(** [get store key] is the record stored under [key], if live. *)
val get : t -> dbkey -> Record.t option

(** [select store query] is the list of live records satisfying [query],
    paired with their database keys, in ascending-dbkey order. Each DNF
    disjunct runs the plan {!explain} would report for it (after heating /
    auto-building any indexes the disjunct asked for), and every candidate
    the access path yields is re-checked against the whole query, so the
    result is exact regardless of which path was chosen. *)
val select : t -> Query.t -> (dbkey * Record.t) list

(** [exists store query] is [select store query <> []], with the same
    effects on the scan tally, the plan counters and the auto-index heat.
    For a UNIQUE probe — one conjunction whose only indexable predicate
    is an equality on an attribute with a built index — it re-checks the
    candidates of that one posting (or the file, when the planner would
    scan it) without building a plan, a key set or rows; any other query
    runs {!select}. *)
val exists : t -> Query.t -> bool

(** [explain store query] is the plan [select] would execute for [query]
    right now — one {!Plan.step} per disjunct. Pure and read-only: it does
    not heat the auto-index tracker, build indexes, or touch any counter,
    so explaining a query never changes how it would run. *)
val explain : t -> Query.t -> Plan.t

(** [delete store query] removes every record satisfying [query]; returns
    the number removed. *)
val delete : t -> Query.t -> int

(** [delete_key store key] removes one record by database key. *)
val delete_key : t -> dbkey -> bool

(** [update store query modifiers] applies all modifiers, left to right, to
    every record satisfying [query]; returns the number modified. *)
val update : t -> Query.t -> Modifier.t list -> int

(** [replace store key record] overwrites the record stored under [key].
    Raises [Not_found] if [key] is not live. *)
val replace : t -> dbkey -> Record.t -> unit

(** [records_of_file store file] lists the live records of [file] in
    ascending-dbkey order. *)
val records_of_file : t -> string -> (dbkey * Record.t) list

val file_names : t -> string list

(** [count store file] is the number of live records in [file]. *)
val count : t -> string -> int

(** [size store] is the total number of live records. *)
val size : t -> int

(** [clear store] empties the store: records, per-file lists, indexes,
    key counter, scan and selection tallies — and any recorded
    undo journal entries (a cleared store has nothing to undo; replaying
    pre-clear undos would resurrect deleted records and re-issue their
    database keys). An open transaction stays open over the empty store. *)
val clear : t -> unit

(** [to_seq store] is every record live at the call, in ascending-dbkey
    order. The store state is immutable, so later mutations do not
    disturb a sequence already taken. *)
val to_seq : t -> (dbkey * Record.t) Seq.t

(** [next_key store] is the key the next {!insert} will assign. *)
val next_key : t -> dbkey

(** Number of records examined by [select]/[delete]/[update] since
    creation or the last [clear]. The MBDS controller adds the
    difference across each broadcast share, taken under the backend's
    lock, to that backend's scanned counter: the cost model's disk
    work. *)
val scan_count : t -> int

(** {2 Per-store observability}

    Selection conjunctions are classified as {e indexed} (answered from a
    posting list) or {e scanned} (full file or whole-store scan). The same
    events feed the process-wide [Obs.Metrics] registry under
    [abdm.select.indexed] and [abdm.select.scan]. Both tallies restart at
    [clear]. *)

(** Selection conjunctions answered via a posting-list (directory) lookup. *)
val indexed_selects : t -> int

(** Selection conjunctions answered by scanning a file (or, when no FILE
    predicate narrows the conjunction, the whole store). *)
val scanned_selects : t -> int

(** {2 Undo-journaled transactions}

    [begin_transaction] starts recording inverse operations; [commit]
    discards the journal; [rollback] replays it backwards, restoring the
    exact pre-transaction contents (including database keys). One level
    only — [begin_transaction] inside a transaction raises
    [Invalid_argument]. *)

val begin_transaction : t -> unit

val commit : t -> unit

val rollback : t -> unit

val in_transaction : t -> bool

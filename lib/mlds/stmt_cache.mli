(** Bounded LRU cache for front-end parse results.

    The load generator (and any real OLTP client) submits the same
    statement text over and over; parsing it each time is pure waste.
    This cache maps [(language, statement text)] to the already-parsed
    representation so repeated statements skip the LIL front end
    entirely. Parse {e results} are immutable ASTs, so sharing them
    across sessions is safe — translation and execution still happen per
    submission (they depend on session state).

    Thread-safe (one mutex per cache). Bumps the process-wide
    [stmt_cache.hit] / [stmt_cache.miss] counters on every lookup. *)

type 'a t

(** [create ?capacity ()] — an LRU cache holding at most [capacity]
    entries (default 512). [capacity = 0] disables caching ({!add} is a
    no-op, {!find} always misses). *)
val create : ?capacity:int -> unit -> 'a t

val capacity : 'a t -> int

(** Entries currently cached. *)
val length : 'a t -> int

(** [find t ~language ~src] — the cached value, refreshed as
    most-recently used. *)
val find : 'a t -> language:string -> src:string -> 'a option

(** [add t ~language ~src v] inserts (or refreshes) an entry, evicting
    the least-recently-used one when full. A [src] longer than 4 KiB is
    not retained: such a text is a one-off script, not a statement a
    client repeats, so the cache holds at most [capacity] × 4 KiB of
    source and the parse trees that go with it. *)
val add : 'a t -> language:string -> src:string -> 'a -> unit

(** Lifetime hit/miss counts for this cache (the registry counters are
    process-wide). *)
val hits : 'a t -> int

val misses : 'a t -> int

val clear : 'a t -> unit

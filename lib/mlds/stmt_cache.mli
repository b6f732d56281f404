(** Bounded LRU cache for front-end parse results.

    The load generator (and any real OLTP client) submits the same
    statement text over and over; parsing it each time is pure waste.
    This cache maps [(language, statement text)] to the already-parsed
    representation so repeated statements skip the LIL front end
    entirely. Parse {e results} are immutable ASTs, so sharing them
    across sessions is safe — translation and execution still happen per
    submission (they depend on session state).

    Thread-safe (one mutex per cache). Bumps the process-wide
    [stmt_cache.hit] / [stmt_cache.miss] counters on every lookup, and
    [stmt_cache.refused] when {!add} turns a first-seen text away from a
    full cache. *)

type 'a t

(** [create ?capacity ()] — an LRU cache holding at most [capacity]
    entries (default 512). [capacity = 0] disables caching ({!add} is a
    no-op, {!find} always misses). *)
val create : ?capacity:int -> unit -> 'a t

(** Entries currently cached. *)
val length : 'a t -> int

(** [find t ~language ~src] — the cached value, refreshed as
    most-recently used. *)
val find : 'a t -> language:string -> src:string -> 'a option

(** [add t ~language ~src v] inserts (or refreshes) an entry. While the
    cache has room, every text is admitted. Once it is full, a new text is
    admitted only on its second [add] since it was last admitted: the
    first one records the text's hash in a fixed doorkeeper array
    (8 × [capacity] slots, rounded up to a power of two) and keeps
    nothing, so a one-off text neither stays live nor evicts an entry.
    An admitted text evicts the least-recently-used entry. Two texts
    whose hashes collide can only be admitted a miss early or late:
    {!find} still compares the full [(language, src)] key. A [src] longer
    than 4 KiB is not retained: such a text is a one-off script, not a
    statement a client repeats, so the cache holds at most [capacity] ×
    4 KiB of source and the parse trees that go with it. *)
val add : 'a t -> language:string -> src:string -> 'a -> unit

(** Lifetime hit/miss counts for this cache (the registry counters are
    process-wide). *)
val hits : 'a t -> int

val misses : 'a t -> int

(** Texts {!add} did not admit because the cache was full and it had not
    seen them miss before (process-wide: the [stmt_cache.refused]
    counter). *)
val refused : 'a t -> int

(** Concurrent execution of one read-only run for the batched executor.

    A {e read run} is a maximal sequence of consecutive requests the
    scheduler classified [`Read] (see {!Mlds.System.classify_handle}),
    each from a distinct session. Because reads mutate no shared state,
    the run may execute in any order — including all at once — and
    [run_reads] exploits that on a {e dedicated} pool of worker domains.

    The pool must not be {!Mbds.Pool.shared}: a parallel MBDS controller
    inside a read dispatches backend work to the shared pool and awaits
    it, and awaiting shared-pool futures from a shared-pool worker can
    deadlock. The server owns its own read pool precisely to keep the two
    tiers' workers disjoint. *)

(** [run_reads ?pool ?deliver tasks] runs every task and returns their
    results in task order. Tasks run concurrently on [pool]'s workers
    when a pool with more than one worker is given and there is more than
    one task; inline (serially, on the calling thread) otherwise — so a
    pool-less server is exactly the serial executor. [deliver] is called
    on each result {e in task order, as soon as it is available} — the
    executor uses it to stream read replies out while the rest of the run
    is still in flight, instead of convoying every client behind the
    slowest task. If a task raises, every other task still runs to
    completion before the first exception (in task order) is re-raised.
    Observes the run length in the [server.read_run_len] histogram. *)
val run_reads :
  ?pool:Mbds.Pool.t -> ?deliver:('r -> unit) -> (unit -> 'r) list -> 'r list

(** [dispatch ?pool tasks] fans the run out on [pool] and returns an
    await thunk immediately, without waiting for any task: the executor
    dispatches a snapshot-pinned read run, then keeps executing
    writes at later epochs while the run is still in flight, and calls
    the thunk (exactly once, from the dispatching thread) at its next
    serial point to collect the results in task order. With no usable
    pool (absent, or a single worker) the tasks run inline {e before}
    [dispatch] returns — barrier semantics, exactly the serial executor —
    and the thunk just hands back the results. Exceptions propagate like
    {!run_reads}: every task completes before the first exception (in
    task order) is re-raised from the thunk. Observes the run length in
    [server.read_run_len]. *)
val dispatch : ?pool:Mbds.Pool.t -> (unit -> 'r) list -> unit -> 'r list

(** A fixed-size pool of OCaml 5 worker domains with per-worker FIFO
    mailboxes.

    The pool is the MBDS execution substrate: where {!Cost} only {e models}
    the parallelism of the paper's backend minicomputers, the pool makes it
    physical — a broadcast's shares run on real domains, so wall-clock
    response time falls with the number of cores.

    {2 Dispatch discipline}

    Work is submitted {e to a worker index}: [submit t i f] queues [f] on
    worker [owner t i], and one worker dequeues its mailbox strictly in
    FIFO order. A submitted task runs exactly once, either on that worker
    or — through {!run_or_await} — on a caller that claims it before the
    worker dequeues it (the help-first rule of work stealing). The pool
    gives no mutual exclusion: the MBDS controller serialises each
    backend store behind its own lock (see {!Abdm.Store} and DESIGN.md).

    Awaiting a future establishes a happens-before edge from everything the
    task wrote to the awaiting domain. *)

type t

(** The pending result of a submitted task. *)
type 'a future

(** [create n] spawns [n] worker domains ([n >= 1]). Raises
    [Invalid_argument] otherwise. *)
val create : int -> t

(** Number of worker domains. *)
val size : t -> int

(** [owner t i] is the worker index serving slot [i], i.e.
    [i mod size t]. Stable for the pool's lifetime. *)
val owner : t -> int -> int

(** [submit t i f] enqueues [f] on worker [owner t i] and returns
    immediately. Raises [Invalid_argument] after [shutdown]. *)
val submit : t -> int -> (unit -> 'a) -> 'a future

(** [await fut] blocks until the task finishes and returns its result,
    re-raising (with its backtrace) any exception the task raised. *)
val await : 'a future -> 'a

(** [run_or_await fut] runs the task of [fut] on the calling domain if no
    worker has dequeued it yet — the worker then skips it — and otherwise
    waits for the worker to finish it. Returns or re-raises like {!await}.
    The caller never waits on a task that has not started, so it cannot
    deadlock behind its own pool's queue. A task run here records nothing
    in [pool.queue_wait_s] or [pool.execute_s]. *)
val run_or_await : 'a future -> 'a

(** [shutdown t] drains every mailbox, stops the workers and joins their
    domains. Idempotent. Subsequent [submit]s raise. *)
val shutdown : t -> unit

(** The process-wide shared pool used by MBDS controllers, created lazily
    on first use and sized [max 1 (min 8 (Domain.recommended_domain_count
    () - 1))] — the domain that broadcasts is one of the executors.
    Joined automatically at exit. Must be first called from a single
    orchestrating domain — the MLDS controller thread. *)
val shared : unit -> t

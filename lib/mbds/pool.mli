(** A fixed-size pool of OCaml 5 worker domains that help a caller run
    the shares of one MBDS broadcast: {!Cost} only {e models} the
    parallelism of the paper's backend minicomputers, the pool makes it
    physical. The pool gives no mutual exclusion: the controller guards
    each backend store with its own lock (see {!Abdm.Store}). *)

type t

(** [create n] is a pool of [n >= 0] worker domains; [create 0] runs
    every share on the caller, in index order. The domains are spawned
    by the first {!run} that has a share for a helper, not here: a
    process that never broadcasts (a server's set-up, one-backend
    controllers) stays on one domain. A worker's minor heap is half its
    spawner's. Raises [Invalid_argument] when [n < 0]. *)
val create : int -> t

(** The configured worker count, whether or not the workers have
    started. Each spawn adds to the process-wide counter
    [pool.workers_started]. *)
val size : t -> int

(** [run t n share] runs [share 0] … [share (n-1)] exactly once each, on
    the caller or on one of up to [min (size t) (n-1)] idle workers that
    claim indexes from the same counter, and returns once all have
    finished — everything they wrote is then visible to the caller. The
    caller never waits on a share that has not started. If shares raise,
    the lowest-indexed exception is re-raised after every share has
    finished. The first call with [n > 1] on a pool with workers spawns
    all of them, once, even when several domains race to it. Raises
    [Invalid_argument] after {!shutdown}, also when it races one: a
    [run] never spawns a domain that {!shutdown} does not join. *)
val run : t -> int -> (int -> unit) -> unit

(** Stops the workers and joins their domains; returns at once if none
    was started. Idempotent. *)
val shutdown : t -> unit

(** The process-wide pool of MBDS controllers, created on first use
    (from one orchestrating domain) with [min 8 (nproc - 1)] workers —
    none on one core — and shut down at exit. Its workers start on the
    first broadcast of any controller that uses it. *)
val shared : unit -> t

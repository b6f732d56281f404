(** The admission-control queue between the server's I/O loop and the
    single executor thread.

    The request side is {e fair-queued}: each {!try_push} names a lane
    key (the server uses the session/connection id), items land in a
    per-key FIFO, and the consumer drains lanes round-robin — so one
    greedy client with a deep pipeline cannot starve a polite one, whose
    next request is at the head of its own lane at most one rotation
    away. Admission is bounded twice: globally ([capacity] items across
    all lanes) and per lane (a quota of [capacity / (active lanes + 1)],
    so even a lone lane leaves headroom for a newcomer).

    Beside the request lanes there is an {e unbounded} control lane
    ({!push_control}) for the server's own housekeeping (disconnect
    cleanup, idle reaping), which must never be droppable. {!pop_batch}
    serves the control lane first.

    {!close} starts the drain: pushes are refused (control pushes become
    no-ops), already-queued items are still delivered, and once all
    lanes are empty {!pop_batch} returns [[]] — the executor's signal to
    finish up. *)

type 'a t

val create : capacity:int -> 'a t

(** [try_push t ~key x] — [false] when the queue is closed, globally
    full, or [key]'s lane is at its fairness quota. *)
val try_push : 'a t -> key:int -> 'a -> bool

(** Enqueue on the unbounded control lane; no-op after {!close}. *)
val push_control : 'a t -> 'a -> unit

(** [pop_batch t ~max] blocks until an item is available, then drains —
    without blocking again — whatever else is already queued, up to
    [max] items total (control lane first at each step, FIFO within each
    lane). [[]] once the queue is closed and fully drained. The batched
    executor's
    intake: under load it amortises scheduling and fsync over the whole
    batch, while an idle server still hands each request over the moment
    it arrives. *)
val pop_batch : 'a t -> max:int -> 'a list

(** Non-blocking {!pop_batch}: drain up to [max] already-queued items
    and return immediately — [[]] when nothing is waiting. The executor
    uses this while an online checkpoint is in flight, so it can advance
    the checkpoint between batches instead of sleeping on the queue. *)
val try_pop_batch : 'a t -> max:int -> 'a list

val close : 'a t -> unit

(** Items waiting in the request lane (the [server.queue_depth] gauge). *)
val depth : 'a t -> int

(** The MBDS backend controller (the {e master} of Fig. 1.3).

    The controller supervises transaction execution across [n] identical
    backends: it assigns global database keys, places records on backends
    (round-robin by key, the simulator's stand-in for MBDS cluster-based
    placement), broadcasts requests, merges per-backend results, and
    counts each backend's work ({!backend_loads}): the inputs of the
    analytic response-time model of {!Cost}, which {!Cost.of_loads}
    evaluates off the request path.

    Functionally the controller behaves exactly like one big
    {!Abdm.Store}: the kernel controller (KC) of the language interfaces
    talks to this module and never sees the partitioning. *)

type t

(** Record-placement policy. MBDS's cluster-based placement spreads each
    file's records across all backends; [Round_robin] models it.
    [Skewed f] routes fraction [f] of the records to backend 0 and the
    rest round-robin — the ablation knob showing why balanced placement
    is what buys the parallel speedup (the max-loaded backend gates the
    response time). With a single backend any skew is degenerate (every
    key lands on backend 0 regardless) and is accepted as [Round_robin]. *)
type placement =
  | Round_robin
  | Skewed of float

(** [create ?name ?placement ?pool n] builds a controller over
    [n] backends. Raises [Invalid_argument] when [n < 1] or the skew
    fraction is not within [0, 1] (NaN included).

    Each backend has its own lock: every broadcast share and every
    per-key mutation ([insert], [insert_keyed], [replace], transaction
    control) runs under it, on the calling domain unless a worker took
    the share — the ownership contract of {!Abdm.Store}.

    A broadcast runs its [n] shares with {!Pool.run}: the caller and idle
    workers of [pool] claim them, and results are merged in backend-index
    order, so every pool gives the same replies; only the measured wall
    clock differs. [pool] defaults to {!Pool.shared} when [n > 1] (no
    workers on a one-core host) and to a worker-less pool otherwise; pass
    one only to compare pools (tests, bench E12). Either way the
    controller starts no worker domain before its first broadcast
    ([select], [delete], [update], a RETRIEVE): [insert],
    [insert_unique], [get] and [replace] run on the caller. *)
val create :
  ?name:string ->
  ?placement:placement ->
  ?pool:Pool.t ->
  int ->
  t

val num_backends : t -> int

val name : t -> string

(** The record-placement policy this controller was created with (after
    the [n = 1] degenerate-skew normalisation). *)
val placement : t -> placement

(** [run t request] broadcasts one ABDL request and merges results. *)
val run : t -> Abdl.Ast.request -> Abdl.Exec.result

val run_transaction : t -> Abdl.Ast.transaction -> Abdl.Exec.result list

(** Store-like access used by the kernel controllers and loaders. These go
    through the same broadcast/merge path as [run]. *)

val insert : t -> Abdm.Record.t -> Abdm.Store.dbkey

(** [insert_unique t record probes] stores [record] as {!insert} does
    only if no live record on any backend matches any of [probes], and
    returns its key; otherwise it stores nothing and returns [None].
    The probes run on the caller, one backend at a time under its lock,
    without a broadcast: no pool share is claimed; with no probes no
    backend is locked before the write. The probes' scans and the write
    go to {!backend_loads}. *)
val insert_unique :
  t -> Abdm.Record.t -> Abdm.Query.t list -> Abdm.Store.dbkey option

val select : t -> Abdm.Query.t -> (Abdm.Store.dbkey * Abdm.Record.t) list

(** [explain t query] renders each backend's {!Abdm.Store.explain} plan,
    one "backend N (name):" section per partition. Read-only. *)
val explain : t -> Abdm.Query.t -> string

val delete : t -> Abdm.Query.t -> int

val update : t -> Abdm.Query.t -> Abdm.Modifier.t list -> int

(** [get t key] fetches one record by global database key, from the
    owning backend only. Takes no lock and counts no scan. *)
val get : t -> Abdm.Store.dbkey -> Abdm.Record.t option

(** [replace t key record] overwrites a record in place on its backend
    (the engines' key-addressed writes and WAL replay; counted as no
    write in {!backend_loads}). Raises
    [Not_found] if [key] is not live. *)
val replace : t -> Abdm.Store.dbkey -> Abdm.Record.t -> unit

(** [insert_keyed t key record] stores a record under an externally
    assigned global key (snapshot restore / WAL replay path): the key is
    routed by the controller's placement function — deterministic in the
    key — so a restored controller reproduces the saved backend layout
    exactly. Advances the key counter past [key]. Raises
    [Invalid_argument] if [key] is already live. *)
val insert_keyed : t -> Abdm.Store.dbkey -> Abdm.Record.t -> unit

(** [to_seq t] is every record live at the call, in ascending global-key
    order: each backend's {!Abdm.Store.to_seq}, merged by key. Takes no
    lock; the caller orders it after the mutations it must see. *)
val to_seq : t -> (Abdm.Store.dbkey * Abdm.Record.t) Seq.t

(** [next_key t] is the global key the next {!insert} will assign. *)
val next_key : t -> Abdm.Store.dbkey

val count : t -> string -> int

val size : t -> int

val file_names : t -> string list

(** Per-backend live record counts, for placement diagnostics. *)
val backend_sizes : t -> int list

(** [(scanned, written, records)] per backend, in index order: cumulative
    records examined and records written (from the
    [mbds.<name>.be<i>.scanned]/[.written] counters in the process-wide
    {!Obs.Metrics} registry — so two controllers sharing a name share the
    tallies), and live records currently held. *)
val backend_loads : t -> (int * int * int) list

(** Transaction control, forwarded to every backend (the controller is
    the transaction coordinator). Like every other backend mutation, the
    journal operations hold each backend's lock — the store-ownership
    contract of {!Abdm.Store}. *)

val begin_transaction : t -> unit

val commit : t -> unit

val rollback : t -> unit

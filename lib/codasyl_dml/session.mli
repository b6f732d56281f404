(** Per-user CODASYL-DML interface state ([dml_info] of §IV.B): the target
    attribute-based database (AB(network) or AB(functional)), the Currency
    Indicator Table, the User Work Area, the per-set result buffers (RB)
    that FIND FIRST/NEXT/PRIOR walk, and a log of every ABDL request the
    translation issues (the one-to-many correspondence of §III.A made
    visible). *)

type rb = {
  mutable rb_entries : (int * Abdm.Record.t) array;
  mutable rb_cursor : int;  (** -1 before the first position *)
}

type t = {
  kernel : Mapping.Kernel.t;
  flavor : Mapping.Ab_schema.flavor;
  descriptor : Abdm.Descriptor.t;
  cit : Network.Currency.t;
  uwa : Network.Uwa.t;
  buffers : (string, rb) Hashtbl.t;  (** per set type *)
  mutable log : Abdl.Ast.request list;  (** newest first *)
}

(** [create kernel flavor] starts a session against a loaded database. *)
val create : Mapping.Kernel.t -> Mapping.Ab_schema.flavor -> t

val net_schema : t -> Network.Schema.t

(** [issue t request] runs one ABDL request through the kernel, logging
    it. *)
val issue : t -> Abdl.Ast.request -> Abdl.Exec.result

(** [retrieve_records t query] issues [RETRIEVE (query) (ALL)] and rebuilds
    the (dbkey, record) pairs from the returned rows. *)
val retrieve_records : t -> Abdm.Query.t -> (int * Abdm.Record.t) list

(** ABDL requests issued by the current or most recent submission,
    oldest first ([Mlds.System] clears the log as each one starts). *)
val request_log : t -> Abdl.Ast.request list

val clear_log : t -> unit

val buffer : t -> string -> rb option

val set_buffer : t -> string -> (int * Abdm.Record.t) list -> rb

val drop_buffers : t -> unit

(** Per-user CODASYL-DML interface state ([dml_info] of §IV.B): the target
    attribute-based database (AB(network) or AB(functional)), the Currency
    Indicator Table, the User Work Area and the per-set result buffers
    (RB) that FIND FIRST/NEXT/PRIOR walk. The ABDL requests a statement's
    translation issues go straight to the kernel; {!Mapping.Kernel.collect}
    shows them (the one-to-many correspondence of §III.A). *)

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
}

(** [create kernel flavor] starts a session against a loaded database. *)
val create : Mapping.Kernel.t -> Mapping.Ab_schema.flavor -> t

val net_schema : t -> Network.Schema.t

val buffer : t -> string -> rb option

val set_buffer : t -> string -> (int * Abdm.Record.t) list -> rb

val drop_buffers : t -> unit

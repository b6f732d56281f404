(** UPDATE modifiers: how target records are to be modified
    (paper §II.C.2). The paper's translations only ever set an attribute to
    a constant or to [NULL]; we additionally support the classic ABDL
    arithmetic form [attr = attr op const] used by kernel-level updates. *)

type arith =
  | Add
  | Sub
  | Mul
  | Div

type t =
  | Set_const of string * Value.t
      (** [attr = constant] (a constant of [Null] blanks the attribute). *)
  | Set_arith of string * arith * Value.t
      (** [attr = attr op constant]; applies to numeric attributes. *)

(** [apply modifier record] is the modified record. [Set_const] adds the
    attribute when absent; [Set_arith] on a missing or non-numeric
    attribute leaves the record unchanged. *)
val apply : t -> Record.t -> Record.t

(** [attribute m] is the attribute the modifier writes. *)
val attribute : t -> string

val to_string : t -> string

(** [to_buffer buf m] appends [to_string m] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

val pp : Format.formatter -> t -> unit

(** The User Work Area: one value template per record type, filled by the
    host program's MOVE statements before FIND ANY / STORE / MODIFY, and by
    GET when records travel back to the user (paper §VI.B.1). *)

type t

val create : unit -> t

(** [move t ~record ~item value] — the COBOL
    [MOVE value TO item IN record]. *)
val move : t -> record:string -> item:string -> Abdm.Value.t -> unit

val get : t -> record:string -> item:string -> Abdm.Value.t option

(** [load t ~record values] overwrites the record's template wholesale —
    how GET materialises a fetched record for the user. *)
val load : t -> record:string -> (string * Abdm.Value.t) list -> unit

(** [template t ~record] is the current template contents in MOVE order. *)
val template : t -> record:string -> (string * Abdm.Value.t) list

(** The Currency Indicator Table (CIT) of §II.B.2 / §VI. A currency
    indicator is either null or the database key of a record; the table
    tracks the current of the run-unit, the current of each record type,
    and the current of each set type (owner occurrence plus current member
    position). FIND statements update it; every other DML statement reads
    it. *)

type dbkey = int

type entry = {
  cur_dbkey : dbkey;
  cur_record_type : string;
}

type set_entry = {
  cur_owner : dbkey option;  (** owner occurrence fixing the set occurrence *)
  cur_member : entry option;  (** current member within that occurrence *)
}

type t

val create : unit -> t

(** [set_run_unit t entry] also makes [entry] current of its record type
    (the CODASYL rule: a FIND updates run-unit, record-type, and set
    currencies together — set currency is updated by the caller that knows
    the set). *)
val set_run_unit : t -> entry -> unit

val run_unit : t -> entry option

(** Test seam: the tests read the current of a record type. *)
val record_current : t -> string -> entry option

(** Test seam: the tests set the current of a record type. *)
val set_record_current : t -> entry -> unit

val set_current : t -> string -> set_entry option

(** [set_set_owner t set owner] fixes the current occurrence of [set] and
    clears its member position. *)
val set_set_owner : t -> string -> dbkey -> unit

(** [set_set_member t set entry] marks [entry] as current member of the
    current occurrence of [set] (owner unchanged). *)
val set_set_member : t -> string -> entry -> unit

(** [forget_key t key] nulls every indicator pointing at [key] — used after
    ERASE so currency never dangles. *)
val forget_key : t -> dbkey -> unit

val clear : t -> unit

(** Rendering for diagnostics and the CLI's SHOW CURRENCY command. *)
val to_string : t -> string

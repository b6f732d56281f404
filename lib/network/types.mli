(** The network (CODASYL-DBTG) data model: record types made of data items,
    and set types — named one-to-many relationships between an owner record
    type and a member record type (paper §II.B). These mirror the
    [nrec_node] / [nattr_node] / [nset_node] / [set_select_node] structures
    of Chapter IV. *)

type attr_type =
  | A_int
  | A_float
  | A_string

(** A data item of a record type ([nattr_node]). *)
type attribute = {
  attr_name : string;
  attr_type : attr_type;
  attr_length : int;  (** maximum value length; 0 when unconstrained *)
  attr_dec_length : int;  (** decimal digits for floating-point items *)
  attr_dup_allowed : bool;
      (** [false] once a DUPLICATES ARE NOT ALLOWED clause names the item *)
}

(** A record type ([nrec_node]). *)
type record_type = {
  rec_name : string;
  rec_attributes : attribute list;
}

type insertion =
  | Ins_automatic
  | Ins_manual

type retention =
  | Ret_fixed
  | Ret_optional
  | Ret_mandatory

(** Set selection mode ([set_select_node]). *)
type selection =
  | Sel_by_value of { item : string; record1 : string }
  | Sel_by_structural of { item : string; record1 : string; record2 : string }
  | Sel_by_application
  | Sel_not_specified

(** A set type ([nset_node]). The owner is a record type name or
    {!Schema.system_owner}. *)
type set_type = {
  set_name : string;
  set_owner : string;
  set_member : string;
  set_insertion : insertion;
  set_retention : retention;
  set_selection : selection;
}

val insertion_to_string : insertion -> string

val retention_to_string : retention -> string

val selection_to_string : selection -> string

(** [attribute ?length ?dec_length ?dup_allowed name ty] builds a data
    item with the usual defaults (no length bound, duplicates allowed). *)
val attribute :
  ?length:int -> ?dec_length:int -> ?dup_allowed:bool -> string -> attr_type ->
  attribute

(** Test seam: the tests read a parsed record type's items. *)
val find_attribute : record_type -> string -> attribute option

type attr_type =
  | A_int
  | A_float
  | A_string

type attribute = {
  attr_name : string;
  attr_type : attr_type;
  attr_length : int;
  attr_dec_length : int;
  attr_dup_allowed : bool;
}

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

type selection =
  | Sel_by_value of { item : string; record1 : string }
  | Sel_by_structural of { item : string; record1 : string; record2 : string }
  | Sel_by_application
  | Sel_not_specified

type set_type = {
  set_name : string;
  set_owner : string;
  set_member : string;
  set_insertion : insertion;
  set_retention : retention;
  set_selection : selection;
}

let insertion_to_string = function
  | Ins_automatic -> "AUTOMATIC"
  | Ins_manual -> "MANUAL"

let retention_to_string = function
  | Ret_fixed -> "FIXED"
  | Ret_optional -> "OPTIONAL"
  | Ret_mandatory -> "MANDATORY"

let selection_to_string = function
  | Sel_by_value { item; record1 } ->
    Printf.sprintf "BY VALUE OF %s IN %s" item record1
  | Sel_by_structural { item; record1; record2 } ->
    Printf.sprintf "BY STRUCTURAL %s IN %s = %s" item record1 record2
  | Sel_by_application -> "BY APPLICATION"
  | Sel_not_specified -> "NOT SPECIFIED"

let attribute ?(length = 0) ?(dec_length = 0) ?(dup_allowed = true) name ty =
  {
    attr_name = name;
    attr_type = ty;
    attr_length = length;
    attr_dec_length = dec_length;
    attr_dup_allowed = dup_allowed;
  }

let find_attribute record name =
  List.find_opt
    (fun a -> String.equal a.attr_name name)
    record.rec_attributes

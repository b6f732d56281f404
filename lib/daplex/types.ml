type scalar_kind =
  | K_int
  | K_float
  | K_string
  | K_bool
  | K_enum

type non_entity_class =
  | NE_base
  | NE_subtype
  | NE_derived

type non_entity = {
  ne_name : string;
  ne_class : non_entity_class;
  ne_kind : scalar_kind;
  ne_length : int;
  ne_values : string list;
  ne_range : (int * int) option;
  ne_constant : bool;
}

type range =
  | R_int
  | R_float
  | R_bool
  | R_string of int
  | R_named of string

type function_decl = {
  fn_name : string;
  fn_range : range;
  fn_set : bool;
}

type entity = {
  ent_name : string;
  ent_functions : function_decl list;
}

type subtype = {
  sub_name : string;
  sub_supertypes : string list;
  sub_functions : function_decl list;
}

type uniqueness = {
  uniq_functions : string list;
  uniq_within : string;
}

type overlap = {
  ov_left : string list;
  ov_right : string list;
}

let range_to_string = function
  | R_int -> "INTEGER"
  | R_float -> "FLOAT"
  | R_bool -> "BOOLEAN"
  | R_string 0 -> "STRING"
  | R_string n -> Printf.sprintf "STRING(%d)" n
  | R_named name -> name

let function_to_string { fn_name; fn_range; fn_set } =
  if fn_set then
    Printf.sprintf "%s : SET OF %s" fn_name (range_to_string fn_range)
  else Printf.sprintf "%s : %s" fn_name (range_to_string fn_range)

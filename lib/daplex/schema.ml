type t = {
  name : string;
  non_entities : Types.non_entity list;
  entities : Types.entity list;
  subtypes : Types.subtype list;
  uniqueness : Types.uniqueness list;
  overlaps : Types.overlap list;
}

type type_ref =
  | Entity of Types.entity
  | Subtype of Types.subtype

type resolved_range =
  | Rs_scalar of {
      kind : Types.scalar_kind;
      length : int;
      values : string list;
    }
  | Rs_entity of string

type fn_class =
  | C_scalar
  | C_scalar_multi
  | C_single_valued of string
  | C_multi_valued of string

let make ~name ?(non_entities = []) ?(entities = []) ?(subtypes = [])
    ?(uniqueness = []) ?(overlaps = []) () =
  { name; non_entities; entities; subtypes; uniqueness; overlaps }

let find_entity t name =
  List.find_opt
    (fun (e : Types.entity) -> String.equal e.ent_name name)
    t.entities

let find_subtype t name =
  List.find_opt
    (fun (s : Types.subtype) -> String.equal s.sub_name name)
    t.subtypes

let find_type t name =
  match find_entity t name with
  | Some e -> Some (Entity e)
  | None ->
    match find_subtype t name with
    | Some s -> Some (Subtype s)
    | None -> None

let find_non_entity t name =
  List.find_opt
    (fun (ne : Types.non_entity) -> String.equal ne.ne_name name)
    t.non_entities

let is_entity_name t name = find_type t name <> None

let type_name = function
  | Entity e -> e.Types.ent_name
  | Subtype s -> s.Types.sub_name

let functions_of = function
  | Entity e -> e.Types.ent_functions
  | Subtype s -> s.Types.sub_functions

let find_function t tname fname =
  match find_type t tname with
  | None -> None
  | Some tref ->
    List.find_opt
      (fun (fn : Types.function_decl) -> String.equal fn.fn_name fname)
      (functions_of tref)

let owner_of_function t fname =
  let search tref =
    List.find_map
      (fun (fn : Types.function_decl) ->
        if String.equal fn.fn_name fname then Some (tref, fn) else None)
      (functions_of tref)
  in
  let candidates =
    List.map (fun e -> Entity e) t.entities
    @ List.map (fun s -> Subtype s) t.subtypes
  in
  List.find_map search candidates

let resolve_range t (range : Types.range) =
  match range with
  | Types.R_int -> Rs_scalar { kind = Types.K_int; length = 0; values = [] }
  | Types.R_float -> Rs_scalar { kind = Types.K_float; length = 0; values = [] }
  | Types.R_bool -> Rs_scalar { kind = Types.K_bool; length = 0; values = [] }
  | Types.R_string n ->
    Rs_scalar { kind = Types.K_string; length = n; values = [] }
  | Types.R_named name ->
    if is_entity_name t name then Rs_entity name
    else
      match find_non_entity t name with
      | Some ne ->
        Rs_scalar { kind = ne.ne_kind; length = ne.ne_length; values = ne.ne_values }
      | None ->
        invalid_arg (Printf.sprintf "Schema.resolve_range: unknown type %S" name)

let classify t (fn : Types.function_decl) =
  match resolve_range t fn.fn_range, fn.fn_set with
  | Rs_scalar _, false -> C_scalar
  | Rs_scalar _, true -> C_scalar_multi
  | Rs_entity name, false -> C_single_valued name
  | Rs_entity name, true -> C_multi_valued name

let supertypes_of t name =
  match find_subtype t name with
  | Some s -> s.sub_supertypes
  | None -> []

let ancestors t name =
  let rec walk seen frontier =
    match frontier with
    | [] -> List.rev seen
    | x :: rest ->
      if List.mem x seen then walk seen rest
      else walk (x :: seen) (rest @ supertypes_of t x)
  in
  walk [] (supertypes_of t name)

let subtypes_of t name =
  List.filter
    (fun (s : Types.subtype) -> List.mem name s.sub_supertypes)
    t.subtypes

let is_terminal t name = subtypes_of t name = []

let all_type_names t =
  List.map (fun (e : Types.entity) -> e.ent_name) t.entities
  @ List.map (fun (s : Types.subtype) -> s.sub_name) t.subtypes

let unique_functions t tname =
  List.concat_map
    (fun (u : Types.uniqueness) ->
      if String.equal u.uniq_within tname then u.uniq_functions else [])
    t.uniqueness

let overlap_allowed t a b =
  let pairs (ov : Types.overlap) =
    (List.mem a ov.ov_left && List.mem b ov.ov_right)
    || (List.mem b ov.ov_left && List.mem a ov.ov_right)
  in
  List.exists pairs t.overlaps

let rec find_dup = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else find_dup rest

let validate t =
  let names =
    all_type_names t
    @ List.map (fun (ne : Types.non_entity) -> ne.ne_name) t.non_entities
  in
  match find_dup names with
  | Some name -> Error (Printf.sprintf "duplicate type name %S" name)
  | None ->
    let check_supertypes (s : Types.subtype) =
      List.find_map
        (fun sup ->
          if is_entity_name t sup then None
          else
            Some
              (Printf.sprintf "subtype %S: unknown supertype %S" s.sub_name sup))
        s.sub_supertypes
    in
    let check_functions tref =
      List.find_map
        (fun (fn : Types.function_decl) ->
          match resolve_range t fn.fn_range with
          | Rs_scalar _ | Rs_entity _ -> None
          | exception Invalid_argument _ ->
            Some
              (Printf.sprintf "type %S: function %S has unknown range %S"
                 (type_name tref) fn.fn_name
                 (Types.range_to_string fn.fn_range)))
        (functions_of tref)
    in
    let check_uniqueness (u : Types.uniqueness) =
      match find_type t u.uniq_within with
      | None ->
        Some (Printf.sprintf "UNIQUE constraint on unknown type %S" u.uniq_within)
      | Some tref ->
        List.find_map
          (fun fname ->
            let declared =
              List.exists
                (fun (fn : Types.function_decl) ->
                  String.equal fn.fn_name fname)
                (functions_of tref)
            in
            if declared then None
            else
              Some
                (Printf.sprintf "UNIQUE constraint: %S not a function of %S"
                   fname u.uniq_within))
          u.uniq_functions
    in
    let check_overlap (ov : Types.overlap) =
      List.find_map
        (fun name ->
          if find_subtype t name <> None then None
          else Some (Printf.sprintf "OVERLAP names unknown subtype %S" name))
        (ov.ov_left @ ov.ov_right)
    in
    let problems =
      List.filter_map check_supertypes t.subtypes
      @ List.filter_map check_functions
          (List.map (fun e -> Entity e) t.entities
          @ List.map (fun s -> Subtype s) t.subtypes)
      @ List.filter_map check_uniqueness t.uniqueness
      @ List.filter_map check_overlap t.overlaps
    in
    match problems with
    | [] -> Ok ()
    | msg :: _ -> Error msg

(* --- DDL rendering ---------------------------------------------------- *)

let non_entity_ddl (ne : Types.non_entity) =
  let body =
    match ne.ne_kind with
    | Types.K_enum ->
      Printf.sprintf "(%s)" (String.concat ", " ne.ne_values)
    | Types.K_int ->
      begin
        match ne.ne_range with
        | Some (lo, hi) -> Printf.sprintf "INTEGER RANGE %d..%d" lo hi
        | None -> "INTEGER"
      end
    | Types.K_float -> "FLOAT"
    | Types.K_bool -> "BOOLEAN"
    | Types.K_string ->
      if ne.ne_length > 0 then Printf.sprintf "STRING(%d)" ne.ne_length
      else "STRING"
  in
  Printf.sprintf "TYPE %s IS %s" ne.ne_name body

let functions_ddl fns =
  List.map
    (fun fn -> Printf.sprintf "  %s;" (Types.function_to_string fn))
    fns

let entity_ddl (e : Types.entity) =
  String.concat "\n"
    ((Printf.sprintf "TYPE %s IS ENTITY" e.ent_name
      :: functions_ddl e.ent_functions)
    @ [ "END ENTITY" ])

let subtype_ddl (s : Types.subtype) =
  String.concat "\n"
    ((Printf.sprintf "TYPE %s IS %s ENTITY" s.sub_name
        (String.concat ", " s.sub_supertypes)
      :: functions_ddl s.sub_functions)
    @ [ "END ENTITY" ])

let uniqueness_ddl (u : Types.uniqueness) =
  Printf.sprintf "UNIQUE %s WITHIN %s"
    (String.concat ", " u.uniq_functions)
    u.uniq_within

let overlap_ddl (ov : Types.overlap) =
  Printf.sprintf "OVERLAP %s WITH %s"
    (String.concat ", " ov.ov_left)
    (String.concat ", " ov.ov_right)

let to_ddl t =
  let parts =
    (Printf.sprintf "DATABASE %s" t.name
     :: List.map non_entity_ddl t.non_entities)
    @ List.map entity_ddl t.entities
    @ List.map subtype_ddl t.subtypes
    @ List.map uniqueness_ddl t.uniqueness
    @ List.map overlap_ddl t.overlaps
  in
  String.concat "\n\n" parts ^ "\n"

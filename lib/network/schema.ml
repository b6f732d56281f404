type t = {
  name : string;
  records : Types.record_type list;
  sets : Types.set_type list;
}

let system_owner = "SYSTEM"

let make ~name ~records ~sets = { name; records; sets }

let find_record t name =
  List.find_opt
    (fun (r : Types.record_type) -> String.equal r.rec_name name)
    t.records

let find_set t name =
  List.find_opt
    (fun (s : Types.set_type) -> String.equal s.set_name name)
    t.sets

let sets_with_member t record =
  List.filter
    (fun (s : Types.set_type) -> String.equal s.set_member record)
    t.sets

let sets_with_owner t record =
  List.filter
    (fun (s : Types.set_type) -> String.equal s.set_owner record)
    t.sets

let record_names t = List.map (fun (r : Types.record_type) -> r.rec_name) t.records

let set_names t = List.map (fun (s : Types.set_type) -> s.set_name) t.sets

let rec find_dup = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else find_dup rest

let validate t =
  match find_dup (record_names t) with
  | Some name -> Error (Printf.sprintf "duplicate record type %S" name)
  | None ->
    match find_dup (set_names t) with
    | Some name -> Error (Printf.sprintf "duplicate set type %S" name)
    | None ->
      let check_set (s : Types.set_type) =
        if
          (not (String.equal s.set_owner system_owner))
          && find_record t s.set_owner = None
        then
          Some
            (Printf.sprintf "set %S: unknown owner record %S" s.set_name
               s.set_owner)
        else if find_record t s.set_member = None then
          Some
            (Printf.sprintf "set %S: unknown member record %S" s.set_name
               s.set_member)
        else
          (* a record may be both member and owner of the same set
             (paper §II.B's set characteristics) *)
          None
      in
      let rec first_error = function
        | [] -> Ok ()
        | s :: rest ->
          match check_set s with
          | Some msg -> Error msg
          | None -> first_error rest
      in
      first_error t.sets

let set_dup_flag t ~record ~items =
  let update_attr (a : Types.attribute) =
    if List.mem a.attr_name items then { a with attr_dup_allowed = false }
    else a
  in
  let update_record (r : Types.record_type) =
    if String.equal r.rec_name record then
      { r with rec_attributes = List.map update_attr r.rec_attributes }
    else r
  in
  { t with records = List.map update_record t.records }

let attribute_ddl (a : Types.attribute) =
  let type_part =
    match a.attr_type with
    | Types.A_string ->
      if a.attr_length > 0 then Printf.sprintf "CHARACTER %d" a.attr_length
      else "CHARACTER"
    | Types.A_int -> "FIXED"
    | Types.A_float ->
      if a.attr_dec_length > 0 then
        Printf.sprintf "FLOAT %d %d" a.attr_length a.attr_dec_length
      else "FLOAT"
  in
  Printf.sprintf "  ITEM %s TYPE IS %s" a.attr_name type_part

let record_ddl (r : Types.record_type) =
  let items = List.map attribute_ddl r.rec_attributes in
  let no_dups =
    List.filter_map
      (fun (a : Types.attribute) ->
        if a.attr_dup_allowed then None else Some a.attr_name)
      r.rec_attributes
  in
  let dup_clause =
    match no_dups with
    | [] -> []
    | _ ->
      [ Printf.sprintf "  DUPLICATES ARE NOT ALLOWED FOR %s"
          (String.concat ", " no_dups) ]
  in
  String.concat "\n"
    ((Printf.sprintf "RECORD NAME IS %s" r.rec_name :: items) @ dup_clause)

let set_ddl (s : Types.set_type) =
  String.concat "\n"
    [
      Printf.sprintf "SET NAME IS %s" s.set_name;
      Printf.sprintf "  OWNER IS %s" s.set_owner;
      Printf.sprintf "  MEMBER IS %s" s.set_member;
      Printf.sprintf "  INSERTION IS %s" (Types.insertion_to_string s.set_insertion);
      Printf.sprintf "  RETENTION IS %s" (Types.retention_to_string s.set_retention);
      Printf.sprintf "  SET SELECTION IS %s" (Types.selection_to_string s.set_selection);
    ]

let to_ddl t =
  let parts =
    (Printf.sprintf "SCHEMA NAME IS %s" t.name :: List.map record_ddl t.records)
    @ List.map set_ddl t.sets
  in
  String.concat "\n\n" parts ^ "\n"

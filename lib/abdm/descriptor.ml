type vtype =
  | T_int
  | T_float
  | T_string

type attribute = {
  attr_name : string;
  attr_type : vtype;
  attr_length : int;
  attr_unique : bool;
}

type file = {
  file_name : string;
  attributes : attribute list;
}

(* A file's template and the record shape it gives: [FILE], then the
   attributes in order ([None] if an attribute repeats). *)
type entry = {
  file : file;
  shape : Record.shape option;
}

type t = {
  db_name : string;
  entries : entry list;  (* in registration order *)
}

let make db_name = { db_name; entries = [] }

let db_name t = t.db_name

let find_entry t name =
  List.find_opt (fun e -> String.equal e.file.file_name name) t.entries

let find_file t name = Option.map (fun e -> e.file) (find_entry t name)

let shape t name = Option.bind (find_entry t name) (fun e -> e.shape)

let add_file t file =
  match find_entry t file.file_name with
  | Some _ ->
    invalid_arg (Printf.sprintf "Descriptor.add_file: duplicate file %S" file.file_name)
  | None ->
    let shape =
      match
        Record.shape
          (Keyword.file_attribute :: List.map (fun a -> a.attr_name) file.attributes)
      with
      | shape -> Some shape
      | exception Invalid_argument _ -> None
    in
    { t with entries = t.entries @ [ { file; shape } ] }

let files t = List.map (fun e -> e.file) t.entries

let file_names t = List.map (fun e -> e.file.file_name) t.entries

let attribute_names t name =
  match find_file t name with
  | Some f -> List.map (fun a -> a.attr_name) f.attributes
  | None -> []

let vtype_to_string = function
  | T_int -> "INTEGER"
  | T_float -> "FLOAT"
  | T_string -> "STRING"

let value_matches vtype (v : Value.t) =
  match vtype, v with
  | _, Value.Null -> true
  | T_int, Value.Int _ -> true
  | T_float, (Value.Float _ | Value.Int _) -> true
  | T_string, Value.Str _ -> true
  | (T_int | T_float | T_string), _ -> false

let validate t record =
  match Record.file record with
  | None -> Error "record has no FILE keyword"
  | Some name ->
    match find_file t name with
    | None -> Error (Printf.sprintf "unknown file %S" name)
    | Some file ->
      let check_keyword attr value =
        if String.equal attr Keyword.file_attribute then Ok ()
        else
          match
            List.find_opt (fun a -> String.equal a.attr_name attr) file.attributes
          with
          | None ->
            Error
              (Printf.sprintf "attribute %S not in template of file %S" attr name)
          | Some a ->
            if value_matches a.attr_type value then Ok ()
            else
              Error
                (Printf.sprintf "attribute %S of file %S expects %s, got %s" attr
                   name
                   (vtype_to_string a.attr_type)
                   (Value.to_string value))
      in
      Record.fold
        (fun first attr value ->
          match first with Ok () -> check_keyword attr value | Error _ -> first)
        (Ok ()) record

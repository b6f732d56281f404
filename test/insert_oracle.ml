(* The SQL INSERT that the one-pass [Relational.Engine.exec_insert]
   replaced: column names checked in one fold, paired with the values by
   [List.combine], each pair's column looked up again for its type and
   again for its UNIQUE probe, and each relation column's value found by
   [List.assoc_opt]. The oracle of the INSERT-path property; it writes
   through the same [Mapping.Kernel.insert_unique]. *)

open Relational

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let check_column rel name =
  match Types.find_column rel name with
  | Some col -> Ok col
  | None -> err "relation %s has no column %S" rel.Types.rel_name name

let value_matches (col : Types.column) (v : Abdm.Value.t) =
  match col.col_type, v with
  | _, Abdm.Value.Null -> true
  | Types.C_int, Abdm.Value.Int _ -> true
  | Types.C_float, (Abdm.Value.Float _ | Abdm.Value.Int _) -> true
  | Types.C_string _, Abdm.Value.Str _ -> true
  | (Types.C_int | Types.C_float | Types.C_string _), _ -> false

let unique_probes rel pairs =
  List.filter_map
    (fun (c, v) ->
      match Types.find_column rel c with
      | Some { col_unique = true; _ } when not (Abdm.Value.is_null v) ->
        Some
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq rel.Types.rel_name;
               Abdm.Predicate.make c Abdm.Predicate.Eq v ])
      | _ -> None)
    pairs

let check_values what rel pairs =
  List.fold_left
    (fun acc (c, v) ->
      let* () = acc in
      let* col = check_column rel c in
      if value_matches col v then Ok ()
      else
        err "%s: column %s expects %s, got %s" what c
          (Types.col_type_to_string col.col_type)
          (Abdm.Value.to_string v))
    (Ok ()) pairs

(* [schema]: the engine's, for the relation lookup *)
let exec_insert kernel schema table columns values =
  let* rel =
    match Types.find_relation schema table with
    | Some rel -> Ok rel
    | None -> err "unknown relation %S" table
  in
  let* columns =
    match columns with
    | Some cols ->
      let* () =
        List.fold_left
          (fun acc c ->
            let* () = acc in
            let* _ = check_column rel c in
            Ok ())
          (Ok ()) cols
      in
      Ok cols
    | None -> Ok (List.map (fun (c : Types.column) -> c.col_name) rel.rel_columns)
  in
  if List.length columns <> List.length values then
    err "INSERT INTO %s: %d column(s) but %d value(s)" table
      (List.length columns) (List.length values)
  else
    let pairs = List.combine columns values in
    let* () = check_values ("INSERT INTO " ^ table) rel pairs in
    let record =
      Abdm.Record.make
        (Abdm.Keyword.file table
         :: List.map
              (fun (c : Types.column) ->
                let v =
                  match List.assoc_opt c.col_name pairs with
                  | Some v -> v
                  | None -> Abdm.Value.Null
                in
                Abdm.Keyword.make c.col_name v)
              rel.rel_columns)
    in
    match Mapping.Kernel.insert_unique kernel record (unique_probes rel pairs) with
    | Some _ -> Ok (Engine.Inserted 1)
    | None -> err "INSERT INTO %s: UNIQUE constraint violated" table

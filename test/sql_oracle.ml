(* The SQL INSERT that the kernel's conditional insert
   ([Mapping.Kernel.insert_unique]) replaced: the oracle its equivalence
   property compares against. An INSERT first issues one RETRIEVE per
   non-NULL value of a UNIQUE column and stores the record only if every
   one came back empty; that INSERT is the engine's as it stood then.
   Every other statement is delegated to a [Relational.Engine] on the same
   kernel, so the oracle's state follows the engine's. *)

open Relational

type t = {
  kernel : Mapping.Kernel.t;
  engine : Engine.t;
}

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let create kernel name = { kernel; engine = Engine.create kernel name }

let kernel t = t.kernel

let relation t name =
  match Types.find_relation (Engine.schema t.engine) name with
  | Some rel -> Ok rel
  | None -> err "unknown relation %S" name

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

let exec_insert t table columns values =
  let* rel = relation t table in
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
    let* () =
      List.fold_left
        (fun acc (c, v) ->
          let* () = acc in
          let* col = check_column rel c in
          if value_matches col v then Ok ()
          else
            err "INSERT INTO %s: column %s expects %s, got %s" table c
              (Types.col_type_to_string col.col_type)
              (Abdm.Value.to_string v))
        (Ok ()) pairs
    in
    (* UNIQUE columns: duplicate-check retrieve first *)
    let unique_preds =
      List.filter_map
        (fun (c, v) ->
          match Types.find_column rel c with
          | Some { col_unique = true; _ } when not (Abdm.Value.is_null v) ->
            Some (Abdm.Predicate.make c Abdm.Predicate.Eq v)
          | _ -> None)
        pairs
    in
    let dup pred =
      let query = Abdm.Query.conj [ Abdm.Predicate.file_eq table; pred ] in
      match
        Mapping.Kernel.run t.kernel
          (Abdl.Ast.retrieve query [ Abdl.Ast.T_attr pred.Abdm.Predicate.attribute ])
      with
      | Abdl.Exec.Rows (_ :: _) -> true
      | Abdl.Exec.Rows [] | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _
      | Abdl.Exec.Updated _ ->
        false
    in
    if List.exists dup unique_preds then
      err "INSERT INTO %s: UNIQUE constraint violated" table
    else
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
      match Mapping.Kernel.run t.kernel (Abdl.Ast.Insert record) with
      | Abdl.Exec.Inserted _ -> Ok (Engine.Inserted 1)
      | Abdl.Exec.Rows _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
        err "INSERT INTO %s: kernel refused the insert" table

let execute t (stmt : Sql_ast.stmt) =
  match stmt with
  | Sql_ast.Insert { table; columns; values } -> exec_insert t table columns values
  | Sql_ast.Create_table _ | Sql_ast.Select _ | Sql_ast.Delete _
  | Sql_ast.Update _ ->
    Engine.execute t.engine stmt

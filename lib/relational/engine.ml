(* The record layout of the relation last inserted into: FILE, then
   its columns in order. A bulk load builds one shape, and every row's
   record shares it. *)
type layout = {
  of_relation : Types.relation;
  shape : Abdm.Record.shape;
  file_value : Abdm.Value.t;
}

type t = {
  kernel : Mapping.Kernel.t;
  read_only : bool;
  mutable schema : Types.schema;
  mutable layout : layout option;
}

type outcome =
  | Table of {
      header : string list;
      rows : Abdm.Value.t list list;
    }
  | Created_table of string
  | Inserted of int
  | Deleted of int
  | Updated of int

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let create ?(read_only = false) ?schema kernel name =
  {
    kernel;
    read_only;
    schema = (match schema with Some s -> s | None -> Types.empty name);
    layout = None;
  }

let schema t = t.schema

let relation t name =
  match Types.find_relation t.schema name with
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

(* restrict the WHERE query to the relation's file *)
let scoped rel where =
  Abdm.Query.conj_and
    (Abdm.Query.conj [ Abdm.Predicate.file_eq rel.Types.rel_name ])
    where

(* the first column named FILE (every record's file keyword) or named
   again later *)
let rec bad_column = function
  | [] -> None
  | c :: rest ->
    let name = c.Types.col_name in
    if String.equal name Abdm.Keyword.file_attribute
       || List.exists (fun c' -> String.equal c'.Types.col_name name) rest
    then Some name
    else bad_column rest

let exec_create_table t rel =
  match rel.Types.rel_columns, bad_column rel.rel_columns with
  | [], _ -> err "CREATE TABLE %s: no columns" rel.rel_name
  | _, Some col when String.equal col Abdm.Keyword.file_attribute ->
    err "CREATE TABLE %s: column name %s is reserved" rel.rel_name col
  | _, Some col -> err "CREATE TABLE %s: column %s named twice" rel.rel_name col
  | _, None ->
    match Types.add_relation t.schema rel with
    | Ok schema ->
      t.schema <- schema;
      Ok (Created_table rel.Types.rel_name)
    | Error msg -> Error msg

(* --- two-table equi-joins over the kernel's RETRIEVE_COMMON ----------- *)

let split_qualified name =
  match String.index_opt name '.' with
  | Some i ->
    Some
      ( String.sub name 0 i,
        String.sub name (i + 1) (String.length name - i - 1) )
  | None -> None

(* resolve a (possibly table-qualified) column to its side and bare name *)
let resolve_column (t1, rel1) (t2, rel2) name =
  match split_qualified name with
  | Some (tbl, col) ->
    if String.equal tbl t1 then
      match Types.find_column rel1 col with
      | Some _ -> Ok (`Left, col)
      | None -> err "relation %s has no column %S" t1 col
    else if String.equal tbl t2 then
      match Types.find_column rel2 col with
      | Some _ -> Ok (`Right, col)
      | None -> err "relation %s has no column %S" t2 col
    else err "unknown table qualifier %S" tbl
  | None ->
    match Types.find_column rel1 name, Types.find_column rel2 name with
    | Some _, Some _ -> err "column %S is ambiguous; qualify it" name
    | Some _, None -> Ok (`Left, name)
    | None, Some _ -> Ok (`Right, name)
    | None, None -> err "column %S is in neither %s nor %s" name t1 t2

let exec_select_join t items t1 t2 where group_by order_by =
  let* rel1 = relation t t1 in
  let* rel2 = relation t t2 in
  let resolve = resolve_column (t1, rel1) (t2, rel2) in
  let* () =
    if group_by <> None || order_by <> None then
      err "GROUP BY / ORDER BY are not supported with joins"
    else if
      List.exists
        (function Sql_ast.S_agg _ -> true | Sql_ast.S_star | Sql_ast.S_col _ -> false)
        items
    then err "aggregates are not supported with joins"
    else Ok ()
  in
  let* conj =
    match where with
    | [ preds ] -> Ok preds
    | [] | _ :: _ :: _ -> err "joins take a single conjunctive WHERE clause"
  in
  (* split the conjunction into per-side restrictions and the join
     condition: an equality whose "value" names a column of the other
     side *)
  let* left_preds, right_preds, join_pairs =
    List.fold_left
      (fun acc (pred : Abdm.Predicate.t) ->
        let* lp, rp, joins = acc in
        let* side, col = resolve pred.attribute in
        let other_column =
          match pred.op, pred.value with
          | Abdm.Predicate.Eq, Abdm.Value.Str s ->
            begin
              match resolve s with
              | Ok (other_side, other_col) when other_side <> side ->
                Some (other_side, other_col)
              | Ok _ | Error _ -> None
            end
          | _ -> None
        in
        match other_column with
        | Some (_, other_col) ->
          let pair =
            match side with
            | `Left -> col, other_col
            | `Right -> other_col, col
          in
          Ok (lp, rp, pair :: joins)
        | None ->
          let pred = { pred with Abdm.Predicate.attribute = col } in
          begin
            match side with
            | `Left -> Ok (pred :: lp, rp, joins)
            | `Right -> Ok (lp, pred :: rp, joins)
          end)
      (Ok ([], [], []))
      conj
  in
  let* left_col, right_col =
    match join_pairs with
    | [ pair ] -> Ok pair
    | [] -> err "joins need exactly one t1.col = t2.col condition"
    | _ :: _ :: _ -> err "only one join condition is supported"
  in
  (* merged attribute name of a right-side column after the kernel join *)
  let merged_right col =
    if Types.find_column rel1 col <> None then t2 ^ "." ^ col else col
  in
  let* labelled_targets =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        match item with
        | Sql_ast.S_star ->
          let left =
            List.map
              (fun (c : Types.column) -> t1 ^ "." ^ c.col_name, c.col_name)
              rel1.Types.rel_columns
          in
          let right =
            List.map
              (fun (c : Types.column) ->
                t2 ^ "." ^ c.col_name, merged_right c.col_name)
              rel2.Types.rel_columns
          in
          Ok (acc @ left @ right)
        | Sql_ast.S_col name ->
          let* side, col = resolve name in
          let merged =
            match side with
            | `Left -> col
            | `Right -> merged_right col
          in
          Ok (acc @ [ name, merged ])
        | Sql_ast.S_agg _ -> err "aggregates are not supported with joins")
      (Ok []) items
  in
  let rc =
    {
      Abdl.Ast.rc_left =
        Abdm.Query.conj (Abdm.Predicate.file_eq t1 :: List.rev left_preds);
      rc_left_attr = left_col;
      rc_right =
        Abdm.Query.conj (Abdm.Predicate.file_eq t2 :: List.rev right_preds);
      rc_right_attr = right_col;
      rc_targets =
        List.map (fun (_, merged) -> Abdl.Ast.T_attr merged) labelled_targets;
    }
  in
  match Mapping.Kernel.run t.kernel (Abdl.Ast.Retrieve_common rc) with
  | Abdl.Exec.Rows rows ->
    Ok
      (Table
         {
           header = List.map fst labelled_targets;
           rows = List.map (fun (r : Abdl.Exec.row) -> List.map snd r.values) rows;
         })
  | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
    err "SELECT: kernel returned a non-retrieval result"

let exec_select t items table where group_by order_by =
  let* rel = relation t table in
  (* validate referenced columns *)
  let referenced =
    List.filter_map
      (function
        | Sql_ast.S_col c -> Some c
        | Sql_ast.S_agg (_, "*") -> None
        | Sql_ast.S_agg (_, c) -> Some c
        | Sql_ast.S_star -> None)
      items
    @ Option.to_list group_by
    @ Option.to_list order_by
  in
  let* () =
    List.fold_left
      (fun acc c ->
        let* () = acc in
        let* _ = check_column rel c in
        Ok ())
      (Ok ()) referenced
  in
  let targets =
    List.concat_map
      (function
        | Sql_ast.S_star ->
          List.map
            (fun (c : Types.column) -> Abdl.Ast.T_attr c.col_name)
            rel.Types.rel_columns
        | Sql_ast.S_col c -> [ Abdl.Ast.T_attr c ]
        | Sql_ast.S_agg (agg, "*") ->
          (* count-all: every record carries the FILE keyword *)
          [ Abdl.Ast.T_agg (agg, Abdm.Keyword.file_attribute) ]
        | Sql_ast.S_agg (agg, c) -> [ Abdl.Ast.T_agg (agg, c) ])
      items
  in
  let has_agg = Abdl.Ast.has_aggregate targets in
  let* by =
    match group_by, order_by with
    | Some g, _ when has_agg -> Ok (Some g)
    | Some _, _ -> err "GROUP BY without an aggregate in the select list"
    | None, Some o when not has_agg -> Ok (Some o)
    | None, Some _ -> err "ORDER BY cannot be combined with aggregates"
    | None, None -> Ok None
  in
  (* a grouped select also reports the grouping column *)
  let targets =
    match group_by with
    | Some g when not (List.exists (fun i -> i = Abdl.Ast.T_attr g) targets) ->
      Abdl.Ast.T_attr g :: targets
    | Some _ | None -> targets
  in
  let request = Abdl.Ast.retrieve ?by (scoped rel where) targets in
  match Mapping.Kernel.run t.kernel request with
  | Abdl.Exec.Rows rows ->
    let header =
      match rows with
      | row :: _ -> List.map fst row.Abdl.Exec.values
      | [] ->
        List.map
          (fun target ->
            match target with
            | Abdl.Ast.T_attr c -> c
            | other -> Abdl.Ast.target_to_string other)
          targets
    in
    let header =
      List.map
        (fun h ->
          (* render COUNT(FILE) back as the star form for the user *)
          if String.equal h ("COUNT(" ^ Abdm.Keyword.file_attribute ^ ")") then
            "COUNT(*)"
          else h)
        header
    in
    Ok
      (Table
         {
           header;
           rows = List.map (fun (r : Abdl.Exec.row) -> List.map snd r.values) rows;
         })
  | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
    err "SELECT: kernel returned a non-retrieval result"

(* the live rows of relation [rel_name] holding [v] in column [c] *)
let unique_probe rel_name c v =
  Abdm.Query.conj
    [ Abdm.Predicate.file_eq rel_name;
      Abdm.Predicate.make c Abdm.Predicate.Eq v ]

(* one probe per non-NULL value bound to a UNIQUE column (NULLs are
   exempt from UNIQUE) *)
let unique_probes rel pairs =
  List.filter_map
    (fun (c, v) ->
      match Types.find_column rel c with
      | Some { col_unique = true; _ } when not (Abdm.Value.is_null v) ->
        Some (unique_probe rel.Types.rel_name c v)
      | _ -> None)
    pairs

(* [v] fits [col]'s type; the error names the statement as [verb table] *)
let check_type verb table (col : Types.column) v =
  if value_matches col v then Ok ()
  else
    err "%s %s: column %s expects %s, got %s" verb table col.col_name
      (Types.col_type_to_string col.col_type)
      (Abdm.Value.to_string v)

(* every (column, value) pair names a column of [rel] and fits its type *)
let check_values verb table rel pairs =
  List.fold_left
    (fun acc (c, v) ->
      let* () = acc in
      let* col = check_column rel c in
      check_type verb table col v)
    (Ok ()) pairs

(* the relation's columns an INSERT names, in statement order: all of
   them without a column list; a name is checked where it stands *)
let insert_columns rel table = function
  | None -> Ok rel.Types.rel_columns
  | Some names ->
    let rec resolve acc = function
      | [] -> Ok (List.rev acc)
      | name :: rest ->
        let* col = check_column rel name in
        if List.memq col acc then
          err "INSERT INTO %s: column %s named twice" table name
        else resolve (col :: acc) rest
    in
    resolve [] names

(* the value an INSERT gives [col], NULL if the statement does not name it *)
let rec value_of col cols values =
  match cols, values with
  | c :: cols, v :: values -> if c == col then v else value_of col cols values
  | _ -> Abdm.Value.Null

let layout t (rel : Types.relation) =
  match t.layout with
  | Some l when l.of_relation == rel -> l
  | Some _ | None ->
    let l =
      {
        of_relation = rel;
        shape =
          Abdm.Record.shape
            (Abdm.Keyword.file_attribute
            :: List.map (fun (c : Types.column) -> c.col_name) rel.rel_columns);
        file_value = Abdm.Value.Str rel.rel_name;
      }
    in
    t.layout <- Some l;
    l

(* the record: FILE, then one value per column of the relation in its
   order *)
let insert_record t rel cols values =
  let l = layout t rel in
  let row = Array.make (List.length rel.Types.rel_columns + 1) Abdm.Value.Null in
  row.(0) <- l.file_value;
  List.iteri (fun i c -> row.(i + 1) <- value_of c cols values) rel.rel_columns;
  Abdm.Record.of_values l.shape row

(* One walk over the statement's (column, value) pairs, in their order:
   each value fits its column's type, and each non-NULL value of a UNIQUE
   column adds its probe. *)
let rec insert_probes table rel_name probes cols values =
  match cols, values with
  | (col : Types.column) :: cols, v :: values ->
    begin
      match check_type "INSERT INTO" table col v with
      | Error msg -> Error msg
      | Ok () ->
        let probes =
          if col.col_unique && not (Abdm.Value.is_null v) then
            unique_probe rel_name col.col_name v :: probes
          else probes
        in
        insert_probes table rel_name probes cols values
    end
  | _ -> Ok (List.rev probes)

let exec_insert t table columns values =
  let* rel = relation t table in
  let* cols = insert_columns rel table columns in
  let n_cols = List.length cols and n_values = List.length values in
  if n_cols <> n_values then
    err "INSERT INTO %s: %d column(s) but %d value(s)" table n_cols n_values
  else
    let* probes = insert_probes table rel.rel_name [] cols values in
    match
      Mapping.Kernel.insert_unique t.kernel (insert_record t rel cols values) probes
    with
    | Some _ -> Ok (Inserted 1)
    | None -> err "INSERT INTO %s: UNIQUE constraint violated" table

let exec_delete t table where =
  let* rel = relation t table in
  match Mapping.Kernel.run t.kernel (Abdl.Ast.Delete (scoped rel where)) with
  | Abdl.Exec.Deleted n -> Ok (Deleted n)
  | Abdl.Exec.Rows _ | Abdl.Exec.Inserted _ | Abdl.Exec.Updated _ ->
    err "DELETE: kernel returned a non-delete result"

let exec_update t table sets where =
  let* rel = relation t table in
  let* () = check_values "UPDATE" table rel sets in
  let rec once = function
    | [] -> Ok ()
    | (c, _) :: rest ->
      if List.mem_assoc c rest then
        err "UPDATE %s: column %s assigned twice" table c
      else once rest
  in
  let* () = once sets in
  let query = scoped rel where in
  (* a UNIQUE value may go to one row only, and only if no other row
     holds it already *)
  let probes = unique_probes rel sets in
  let held_elsewhere key =
    List.exists
      (fun probe ->
        List.exists (fun (k, _) -> k <> key) (Mapping.Kernel.select t.kernel probe))
      probes
  in
  let* () =
    match if probes = [] then [] else Mapping.Kernel.select t.kernel query with
    | _ :: _ :: _ -> err "UPDATE %s: UNIQUE column set on more than one row" table
    | [ (key, _) ] when held_elsewhere key ->
      err "UPDATE %s: UNIQUE constraint violated" table
    | [] | [ _ ] -> Ok ()
  in
  let modifiers = List.map (fun (c, v) -> Abdm.Modifier.Set_const (c, v)) sets in
  match Mapping.Kernel.run t.kernel (Abdl.Ast.Update (query, modifiers)) with
  | Abdl.Exec.Updated n -> Ok (Updated n)
  | Abdl.Exec.Rows _ | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ ->
    err "UPDATE: kernel returned a non-update result"

let execute t = function
  | (Sql_ast.Create_table _ | Sql_ast.Insert _ | Sql_ast.Delete _ | Sql_ast.Update _)
    when t.read_only ->
    Error "this SQL session is read-only (the database belongs to another data model)"
  | Sql_ast.Create_table rel -> exec_create_table t rel
  | Sql_ast.Select { items; tables; where; group_by; order_by } ->
    begin
      match tables with
      | [ table ] -> exec_select t items table where group_by order_by
      | [ t1; t2 ] -> exec_select_join t items t1 t2 where group_by order_by
      | [] -> Error "SELECT: no table named"
      | _ -> Error "SELECT: at most two tables are supported"
    end
  | Sql_ast.Insert { table; columns; values } -> exec_insert t table columns values
  | Sql_ast.Delete { table; where } -> exec_delete t table where
  | Sql_ast.Update { table; sets; where } -> exec_update t table sets where

let run t src =
  match Sql_parser.stmt src with
  | stmt -> execute t stmt
  | exception Sql_parser.Parse_error msg -> Error ("parse error: " ^ msg)

let run_program t src =
  List.map (fun stmt -> stmt, execute t stmt) (Sql_parser.program src)

let outcome_to_string = function
  | Table { header; rows } ->
    let line row = String.concat " | " (List.map Abdm.Value.to_display row) in
    String.concat "\n" (String.concat " | " header :: List.map line rows)
  | Created_table name -> Printf.sprintf "table %s created" name
  | Inserted 1 -> "1 row(s) inserted"
  | Inserted n -> Printf.sprintf "%d row(s) inserted" n
  | Deleted n -> Printf.sprintf "%d row(s) deleted" n
  | Updated n -> Printf.sprintf "%d row(s) updated" n

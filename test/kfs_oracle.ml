(* The KFS formatter that the one-buffer writer ([Mlds.Kfs]) replaced: the
   oracle its byte-identity property compares against. Each block is a
   [Printf.sprintf] of the statement text and the result, whose lines are
   split and re-joined with a two-space indent; the blocks are joined by
   [String.concat]. SQL statements print through the [Printf] printer
   that [Relational.Sql_ast.to_buffer] replaced. Tables, ABDL results and
   displayed values print through the per-cell printers that
   [Mlds.Kfs]'s table writer, [Abdl.Exec.add_result] and
   [Abdm.Value.add_display] replaced: [table], [row_to_string],
   [result_to_string] and [to_display] below are those printers as they
   were. *)

let to_display = function
  | Abdm.Value.Int i -> string_of_int i
  | Abdm.Value.Float f -> Printf.sprintf "%g" f
  | Abdm.Value.Str s -> s
  | Abdm.Value.Null -> "NULL"

let trim_right s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do decr n done;
  String.sub s 0 !n

let table header rows =
  let cells = List.map (List.map to_display) rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row ->
            match List.nth_opt row i with
            | Some cell -> max acc (String.length cell)
            | None -> acc)
          (String.length h) cells)
      header
  in
  let pad width text = text ^ String.make (max 0 (width - String.length text)) ' ' in
  (* rows may be ragged when an attribute is absent from a record *)
  let render_row row =
    let padded =
      List.mapi
        (fun i w ->
          match List.nth_opt row i with
          | Some cell -> pad w cell
          | None -> pad w "")
        widths
    in
    trim_right (String.concat "  " padded)
  in
  let rule = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (render_row header :: rule :: List.map render_row cells)

let row_to_string (row : Abdl.Exec.row) =
  let cells =
    List.map
      (fun (attr, v) -> Printf.sprintf "%s=%s" attr (to_display v))
      row.values
  in
  let prefix =
    match row.dbkey with
    | Some key -> Printf.sprintf "[%d] " key
    | None -> ""
  in
  prefix ^ String.concat ", " cells

let result_to_string = function
  | Abdl.Exec.Inserted key -> Printf.sprintf "INSERTED dbkey=%d" key
  | Abdl.Exec.Deleted n -> Printf.sprintf "DELETED %d" n
  | Abdl.Exec.Updated n -> Printf.sprintf "UPDATED %d" n
  | Abdl.Exec.Rows rows ->
    if rows = [] then "NO RECORDS"
    else String.concat "\n" (List.map row_to_string rows)

open Relational.Sql_ast

let block stmt_text result_text =
  Printf.sprintf "%s\n  %s" stmt_text
    (String.concat "\n  " (String.split_on_char '\n' result_text))

let format_pairs to_stmt to_outcome pairs =
  pairs
  |> List.map (fun (stmt, result) ->
         let result_text =
           match result with
           | Ok outcome -> to_outcome outcome
           | Error msg -> "*** " ^ msg
         in
         block (to_stmt stmt) result_text)
  |> String.concat "\n"

let select_item_to_string = function
  | S_star -> "*"
  | S_col name -> name
  | S_agg (agg, col) ->
    Printf.sprintf "%s(%s)" (Abdl.Ast.aggregate_to_string agg) col

let where_to_string where =
  if where = Abdm.Query.always then ""
  else " WHERE " ^ Abdm.Query.to_string where

let sql_to_string = function
  | Create_table rel ->
    let col c =
      Printf.sprintf "%s %s%s" c.Relational.Types.col_name
        (Relational.Types.col_type_to_string c.Relational.Types.col_type)
        (if c.Relational.Types.col_unique then " UNIQUE" else "")
    in
    Printf.sprintf "CREATE TABLE %s (%s)" rel.Relational.Types.rel_name
      (String.concat ", " (List.map col rel.Relational.Types.rel_columns))
  | Select { items; tables; where; group_by; order_by } ->
    Printf.sprintf "SELECT %s FROM %s%s%s%s"
      (String.concat ", " (List.map select_item_to_string items))
      (String.concat ", " tables)
      (where_to_string where)
      (match group_by with Some c -> " GROUP BY " ^ c | None -> "")
      (match order_by with Some c -> " ORDER BY " ^ c | None -> "")
  | Insert { table; columns; values } ->
    Printf.sprintf "INSERT INTO %s%s VALUES (%s)" table
      (match columns with
       | Some cols -> Printf.sprintf " (%s)" (String.concat ", " cols)
       | None -> "")
      (String.concat ", " (List.map Abdm.Value.to_string values))
  | Delete { table; where } ->
    Printf.sprintf "DELETE FROM %s%s" table (where_to_string where)
  | Update { table; sets; where } ->
    Printf.sprintf "UPDATE %s SET %s%s" table
      (String.concat ", "
         (List.map
            (fun (c, v) -> Printf.sprintf "%s = %s" c (Abdm.Value.to_string v))
            sets))
      (where_to_string where)

let format_codasyl pairs =
  format_pairs Codasyl_dml.Ast.to_string Codasyl_dml.Engine.outcome_to_string
    pairs

let format_daplex pairs =
  format_pairs Daplex_dml.Ast.to_string Daplex_dml.Engine.outcome_to_string pairs

let format_sql pairs =
  let to_outcome = function
    | Relational.Engine.Table { header; rows } -> table header rows
    | other -> Relational.Engine.outcome_to_string other
  in
  format_pairs sql_to_string to_outcome pairs

let format_dli pairs =
  format_pairs Hierarchical.Dli_ast.to_string Hierarchical.Engine.outcome_to_string
    pairs

let format_abdl pairs =
  pairs
  |> List.map (fun (request, result) ->
         block (Abdl.Ast.to_string request) (result_to_string result))
  |> String.concat "\n"

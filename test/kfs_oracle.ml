(* The KFS formatter that the one-buffer writer ([Mlds.Kfs]) replaced: the
   oracle its byte-identity property compares against. Each block is a
   [Printf.sprintf] of the statement text and the result, whose lines are
   split and re-joined with a two-space indent; the blocks are joined by
   [String.concat]. SQL statements print through the [Printf] printer
   that [Relational.Sql_ast.to_buffer] replaced. [Mlds.Kfs.table] is not
   part of the change and is reused as is. *)

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
    | Relational.Engine.Table { header; rows } -> Mlds.Kfs.table header rows
    | other -> Relational.Engine.outcome_to_string other
  in
  format_pairs sql_to_string to_outcome pairs

let format_dli pairs =
  format_pairs Hierarchical.Dli_ast.to_string Hierarchical.Engine.outcome_to_string
    pairs

let format_abdl pairs =
  pairs
  |> List.map (fun (request, result) ->
         block (Abdl.Ast.to_string request) (Abdl.Exec.result_to_string result))
  |> String.concat "\n"

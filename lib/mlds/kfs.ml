(* Appends [text] with two spaces after each of its newlines: one
   substring per line, so text without a newline (most results) is one
   append. *)
let add_indented buf text =
  let rec from i =
    match String.index_from_opt text i '\n' with
    | None -> Buffer.add_substring buf text i (String.length text - i)
    | Some j ->
      Buffer.add_substring buf text i (j + 1 - i);
      Buffer.add_string buf "  ";
      from (j + 1)
  in
  from 0

(* One block per statement, separated by newlines: the statement, then
   its result indented by two spaces on every line. *)
let format_blocks add_stmt result_text pairs =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i (stmt, result) ->
      if i > 0 then Buffer.add_char buf '\n';
      add_stmt buf stmt;
      Buffer.add_string buf "\n  ";
      add_indented buf (result_text result))
    pairs;
  Buffer.contents buf

(* a constraint abort is reported inline *)
let format_pairs add_stmt to_outcome =
  format_blocks add_stmt (function
    | Ok outcome -> to_outcome outcome
    | Error msg -> "*** " ^ msg)

(* for the languages whose statements print only to a string *)
let via_string to_string buf stmt = Buffer.add_string buf (to_string stmt)

let trim_right s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = ' ' do decr n done;
  String.sub s 0 !n

let table header rows =
  let cells = List.map (List.map Abdm.Value.to_display) rows in
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

let format_codasyl pairs =
  format_pairs
    (via_string Codasyl_dml.Ast.to_string)
    Codasyl_dml.Engine.outcome_to_string pairs

let format_daplex pairs =
  format_pairs
    (via_string Daplex_dml.Ast.to_string)
    Daplex_dml.Engine.outcome_to_string pairs

let format_sql pairs =
  let to_outcome = function
    | Relational.Engine.Table { header; rows } -> table header rows
    | other -> Relational.Engine.outcome_to_string other
  in
  format_pairs Relational.Sql_ast.to_buffer to_outcome pairs

let format_dli pairs =
  format_pairs
    (via_string Hierarchical.Dli_ast.to_string)
    Hierarchical.Engine.outcome_to_string pairs

let format_abdl pairs =
  format_blocks Abdl.Ast.to_buffer Abdl.Exec.result_to_string pairs

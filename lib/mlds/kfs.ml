(* Every formatter appends its whole reply to the caller's buffer. A
   result is written with its two-space indent already after each of its
   newlines, so no second pass over the text follows. *)

let indent = "  "

(* One block per statement, separated by newlines: the statement, then
   its result indented by two spaces on every line. *)
let add_blocks add_stmt add_result buf pairs =
  List.iteri
    (fun i (stmt, result) ->
      if i > 0 then Buffer.add_char buf '\n';
      add_stmt buf stmt;
      Buffer.add_char buf '\n';
      Buffer.add_string buf indent;
      add_result buf result)
    pairs

(* a constraint abort is reported inline *)
let add_pairs add_stmt add_outcome =
  add_blocks add_stmt (fun buf -> function
    | Ok outcome -> add_outcome buf outcome
    | Error msg ->
      Buffer.add_string buf "*** ";
      Abdm.Value.add_text ~indent buf msg)

(* for the languages whose statements and outcomes print only to a
   string *)
let via_string to_string buf stmt = Buffer.add_string buf (to_string stmt)

let indented to_string buf outcome =
  Abdm.Value.add_text ~indent buf (to_string outcome)

(* The table in columns: each column as wide as its widest cell, cells
   two spaces apart, no line ending in a space. A row shorter than the
   header (an attribute absent from a record) pads its missing cells;
   cells past the header's are not shown. Two passes: the widths, then
   the padded cells. [indent] follows every newline written, a cell's
   included; trimming a line stops at the line's start or just past the
   indent after its last newline ([floor]), so it never eats an
   indent. *)
let add_table ~indent buf header rows =
  let header = Array.of_list header in
  let cols = Array.length header in
  let widths = Array.map String.length header in
  List.iter
    (List.iteri (fun i v ->
         if i < cols then
           widths.(i) <- max widths.(i) (Abdm.Value.display_length v)))
    rows;
  let floor = ref (Buffer.length buf) in
  let add_text s =
    Abdm.Value.add_text ~indent buf s;
    match String.rindex_opt s '\n' with
    | Some j -> floor := Buffer.length buf - (String.length s - j - 1)
    | None -> ()
  in
  let pad i len =
    for _ = len + 1 to widths.(i) do
      Buffer.add_char buf ' '
    done
  in
  let gap i = if i > 0 then Buffer.add_string buf "  " in
  let trim () =
    let n = ref (Buffer.length buf) in
    while !n > !floor && Buffer.nth buf (!n - 1) = ' ' do
      decr n
    done;
    Buffer.truncate buf !n
  in
  let new_line () =
    Buffer.add_char buf '\n';
    Buffer.add_string buf indent;
    floor := Buffer.length buf
  in
  let rec cells i = function
    | _ when i = cols -> ()
    | [] ->
      gap i;
      pad i 0;
      cells (i + 1) []
    | v :: rest ->
      gap i;
      (match v with
      | Abdm.Value.Str s ->
        add_text s;
        pad i (String.length s)
      | v ->
        let start = Buffer.length buf in
        Abdm.Value.add_display buf v;
        pad i (Buffer.length buf - start));
      cells (i + 1) rest
  in
  Array.iteri
    (fun i h ->
      gap i;
      add_text h;
      pad i (String.length h))
    header;
  trim ();
  new_line ();
  Array.iteri
    (fun i w ->
      gap i;
      for _ = 1 to w do
        Buffer.add_char buf '-'
      done)
    widths;
  List.iter
    (fun row ->
      new_line ();
      cells 0 row;
      trim ())
    rows

let table header rows =
  let buf = Buffer.create 256 in
  add_table ~indent:"" buf header rows;
  Buffer.contents buf

let add_codasyl buf pairs =
  add_pairs
    (via_string Codasyl_dml.Ast.to_string)
    (indented Codasyl_dml.Engine.outcome_to_string)
    buf pairs

let add_daplex buf pairs =
  add_pairs
    (via_string Daplex_dml.Ast.to_string)
    (indented Daplex_dml.Engine.outcome_to_string)
    buf pairs

let add_sql buf pairs =
  let add_outcome buf = function
    | Relational.Engine.Table { header; rows } -> add_table ~indent buf header rows
    | other -> indented Relational.Engine.outcome_to_string buf other
  in
  add_pairs Relational.Sql_ast.to_buffer add_outcome buf pairs

let add_dli buf pairs =
  add_pairs
    (via_string Hierarchical.Dli_ast.to_string)
    (indented Hierarchical.Engine.outcome_to_string)
    buf pairs

let add_abdl buf pairs =
  add_blocks Abdl.Ast.to_buffer (Abdl.Exec.add_result ~indent) buf pairs

let format_abdl pairs =
  let buf = Buffer.create 256 in
  add_abdl buf pairs;
  Buffer.contents buf

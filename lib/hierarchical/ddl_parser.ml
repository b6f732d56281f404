exception Parse_error = Abdl.Syntax.Parse_error

open Abdl.Syntax

let field_def c =
  let name = ident c in
  let type_name = String.uppercase_ascii (ident c) in
  let paren_length () =
    match peek c with
    | Abdl.Lexer.LPAREN ->
      advance c;
      let n =
        match next c with
        | Abdl.Lexer.INT n -> n
        | tok -> fail "expected length, got %s" (Abdl.Lexer.token_to_string tok)
      in
      expect c Abdl.Lexer.RPAREN;
      n
    | Abdl.Lexer.INT n ->
      advance c;
      n
    | _ -> 0
  in
  let field_type =
    match type_name with
    | "INT" | "INTEGER" | "FIXED" -> Types.F_int
    | "FLOAT" | "REAL" -> Types.F_float
    | "CHAR" | "CHARACTER" | "STRING" -> Types.F_string (paren_length ())
    | other -> fail "unknown field type %S" other
  in
  { Types.field_name = name; field_type }

let strip_comments line =
  match Daplex.Str_search.find line "--" with
  | Some i -> String.sub line 0 i
  | None -> line

let segment c =
  let name = ident c in
  let parent = if accept_kw c "PARENT" then Some (ident c) else None in
  expect c Abdl.Lexer.LPAREN;
  let seg_fields = comma_separated c field_def in
  expect c Abdl.Lexer.RPAREN;
  { Types.seg_name = name; seg_parent = parent; seg_fields }

let clauses c =
  let rec loop db_name segments =
    if accept_kw c "DATABASE" then begin
      if db_name <> None then fail "duplicate DATABASE clause";
      loop (Some (ident c)) segments
    end
    else if accept_kw c "SEGMENT" then loop db_name (segment c :: segments)
    else
      match peek c with
      | Abdl.Lexer.EOF -> db_name, List.rev segments
      | tok ->
        fail "unexpected %s in hierarchical DDL" (Abdl.Lexer.token_to_string tok)
  in
  loop None []

let schema src =
  let cleaned =
    String.split_on_char '\n' src
    |> List.map strip_comments
    |> String.concat "\n"
  in
  let db_name, segments = parse clauses cleaned in
  let name =
    match db_name with
    | Some n -> n
    | None -> fail "missing DATABASE clause"
  in
  let result = { Types.name; segments } in
  match Types.validate result with
  | Ok () -> result
  | Error msg -> fail "invalid schema: %s" msg

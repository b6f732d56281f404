exception Parse_error = Abdl.Syntax.Parse_error

open Abdl.Syntax

let where_clause c =
  if accept_kw c "WHERE" then condition c else Abdm.Query.always

let column_def c =
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
    | _ -> 0
  in
  let col_type =
    match type_name with
    | "INT" | "INTEGER" -> Types.C_int
    | "FLOAT" | "REAL" -> Types.C_float
    | "CHAR" | "VARCHAR" | "TEXT" -> Types.C_string (paren_length ())
    | other -> fail "unknown column type %S" other
  in
  let col_unique = accept_kw c "UNIQUE" in
  { Types.col_name = name; col_type; col_unique }

let aggregate_of_name name =
  if kw_equal name "COUNT" then Some Abdl.Ast.Count
  else if kw_equal name "SUM" then Some Abdl.Ast.Sum
  else if kw_equal name "AVG" then Some Abdl.Ast.Avg
  else if kw_equal name "MIN" then Some Abdl.Ast.Min
  else if kw_equal name "MAX" then Some Abdl.Ast.Max
  else None

let select_item c =
  match peek c with
  | Abdl.Lexer.OP "*" ->
    advance c;
    Sql_ast.S_star
  | _ ->
    let name = ident c in
    match aggregate_of_name name, peek c with
    | Some agg, Abdl.Lexer.LPAREN ->
      advance c;
      let col =
        match peek c with
        | Abdl.Lexer.OP "*" ->
          advance c;
          "*"
        | _ -> ident c
      in
      expect c Abdl.Lexer.RPAREN;
      Sql_ast.S_agg (agg, col)
    | _ -> Sql_ast.S_col name

let by_clause c kw =
  if accept_kw c kw then begin
    expect_kw c "BY";
    Some (ident c)
  end
  else None

let parenthesised c one =
  expect c Abdl.Lexer.LPAREN;
  let items = comma_separated c one in
  expect c Abdl.Lexer.RPAREN;
  items

let assignment c =
  let col = ident c in
  expect c (Abdl.Lexer.OP "=");
  col, literal c

let statement_of_cursor c =
  let verb = ident c in
  if kw_equal verb "CREATE" then begin
    expect_kw c "TABLE";
    let name = ident c in
    let columns = parenthesised c column_def in
    Sql_ast.Create_table { Types.rel_name = name; rel_columns = columns }
  end
  else if kw_equal verb "SELECT" then begin
    let items = comma_separated c select_item in
    expect_kw c "FROM";
    let tables = comma_separated c ident in
    let where = where_clause c in
    let group_by = by_clause c "GROUP" in
    let order_by = by_clause c "ORDER" in
    Sql_ast.Select { items; tables; where; group_by; order_by }
  end
  else if kw_equal verb "INSERT" then begin
    expect_kw c "INTO";
    let table = ident c in
    let columns =
      match peek c with
      | Abdl.Lexer.LPAREN -> Some (parenthesised c ident)
      | _ -> None
    in
    expect_kw c "VALUES";
    let values = parenthesised c literal in
    Sql_ast.Insert { table; columns; values }
  end
  else if kw_equal verb "DELETE" then begin
    expect_kw c "FROM";
    let table = ident c in
    Sql_ast.Delete { table; where = where_clause c }
  end
  else if kw_equal verb "UPDATE" then begin
    let table = ident c in
    expect_kw c "SET";
    let sets = comma_separated c assignment in
    Sql_ast.Update { table; sets; where = where_clause c }
  end
  else fail "unknown SQL statement %S" (String.uppercase_ascii verb)

let stmt = statement statement_of_cursor

let program = program statement_of_cursor

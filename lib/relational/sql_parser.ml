exception Parse_error of string

(* The parser reads the lexer's cursor directly: no token list is built,
   and the text after a syntax error is never lexed. *)
let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let peek = Abdl.Lexer.peek

let advance = Abdl.Lexer.advance

let next s =
  let tok = peek s in
  advance s;
  tok

let upper = String.uppercase_ascii

let rec same_upper name kw i =
  i = String.length kw
  || Char.uppercase_ascii (String.unsafe_get name i) = String.unsafe_get kw i
     && same_upper name kw (i + 1)

(* [upper name = kw] for an upper-case [kw], without the copy *)
let kw_equal name kw =
  String.length name = String.length kw && same_upper name kw 0

let ident s =
  match next s with
  | Abdl.Lexer.IDENT name -> name
  | tok -> fail "expected identifier, got %s" (Abdl.Lexer.token_to_string tok)

let expect s tok =
  let got = next s in
  if got <> tok then
    fail "expected %s, got %s"
      (Abdl.Lexer.token_to_string tok)
      (Abdl.Lexer.token_to_string got)

let expect_kw s kw =
  match next s with
  | Abdl.Lexer.IDENT name when kw_equal name kw -> ()
  | tok -> fail "expected %s, got %s" kw (Abdl.Lexer.token_to_string tok)

let kw_is tok kw =
  match tok with
  | Abdl.Lexer.IDENT name -> kw_equal name kw
  | _ -> false

let literal s =
  match next s with
  | Abdl.Lexer.INT i -> Abdm.Value.Int i
  | Abdl.Lexer.FLOAT f -> Abdm.Value.Float f
  | Abdl.Lexer.STRING str -> Abdm.Value.Str str
  | Abdl.Lexer.IDENT name when kw_equal name "NULL" -> Abdm.Value.Null
  | Abdl.Lexer.IDENT name ->
    (* a bare identifier on the right of [=] may name the join column of
       the other table ([WHERE dept = dname]); the engine resolves it *)
    Abdm.Value.Str name
  | tok -> fail "expected literal, got %s" (Abdl.Lexer.token_to_string tok)

let rec comma_separated s parse_one =
  let first = parse_one s in
  match peek s with
  | Abdl.Lexer.COMMA ->
    advance s;
    first :: comma_separated s parse_one
  | _ -> [ first ]

(* --- WHERE clauses: AND/OR/parens over comparisons, normalised to DNF --- *)

type bexpr =
  | B_pred of Abdm.Predicate.t
  | B_and of bexpr * bexpr
  | B_or of bexpr * bexpr

let rec to_dnf = function
  | B_pred p -> Abdm.Query.conj [ p ]
  | B_or (a, b) -> Abdm.Query.disj [ to_dnf a; to_dnf b ]
  | B_and (a, b) -> Abdm.Query.conj_and (to_dnf a) (to_dnf b)

let comparison s =
  let col = ident s in
  match next s with
  | Abdl.Lexer.OP op_text ->
    begin
      match Abdm.Predicate.op_of_string op_text with
      | Some op -> B_pred (Abdm.Predicate.make col op (literal s))
      | None -> fail "expected comparison operator, got %s" op_text
    end
  | tok -> fail "expected comparison operator, got %s" (Abdl.Lexer.token_to_string tok)

let rec bool_expr s =
  let left = bool_term s in
  if kw_is (peek s) "OR" then begin
    advance s;
    B_or (left, bool_expr s)
  end
  else left

and bool_term s =
  let left = bool_factor s in
  if kw_is (peek s) "AND" then begin
    advance s;
    B_and (left, bool_term s)
  end
  else left

and bool_factor s =
  match peek s with
  | Abdl.Lexer.LPAREN ->
    advance s;
    let e = bool_expr s in
    expect s Abdl.Lexer.RPAREN;
    e
  | _ -> comparison s

let where_clause s =
  if kw_is (peek s) "WHERE" then begin
    advance s;
    to_dnf (bool_expr s)
  end
  else Abdm.Query.always

(* --- statements --------------------------------------------------------- *)

let column_def s =
  let name = ident s in
  let type_name = upper (ident s) in
  let paren_length () =
    match peek s with
    | Abdl.Lexer.LPAREN ->
      advance s;
      let n =
        match next s with
        | Abdl.Lexer.INT n -> n
        | tok -> fail "expected length, got %s" (Abdl.Lexer.token_to_string tok)
      in
      expect s Abdl.Lexer.RPAREN;
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
  let col_unique =
    if kw_is (peek s) "UNIQUE" then begin
      advance s;
      true
    end
    else false
  in
  { Types.col_name = name; col_type; col_unique }

let aggregate_of_name name =
  if kw_equal name "COUNT" then Some Abdl.Ast.Count
  else if kw_equal name "SUM" then Some Abdl.Ast.Sum
  else if kw_equal name "AVG" then Some Abdl.Ast.Avg
  else if kw_equal name "MIN" then Some Abdl.Ast.Min
  else if kw_equal name "MAX" then Some Abdl.Ast.Max
  else None

let select_item s =
  match peek s with
  | Abdl.Lexer.OP "*" ->
    advance s;
    Sql_ast.S_star
  | _ ->
    let name = ident s in
    match aggregate_of_name name, peek s with
    | Some agg, Abdl.Lexer.LPAREN ->
      advance s;
      let col =
        match peek s with
        | Abdl.Lexer.OP "*" ->
          advance s;
          "*"
        | _ -> ident s
      in
      expect s Abdl.Lexer.RPAREN;
      Sql_ast.S_agg (agg, col)
    | _ -> Sql_ast.S_col name

let statement s =
  let verb = ident s in
  if kw_equal verb "CREATE" then begin
    expect_kw s "TABLE";
    let name = ident s in
    expect s Abdl.Lexer.LPAREN;
    let columns = comma_separated s column_def in
    expect s Abdl.Lexer.RPAREN;
    Sql_ast.Create_table { Types.rel_name = name; rel_columns = columns }
  end
  else if kw_equal verb "SELECT" then begin
    let items = comma_separated s select_item in
    expect_kw s "FROM";
    let tables = comma_separated s ident in
    let where = where_clause s in
    let group_by =
      if kw_is (peek s) "GROUP" then begin
        advance s;
        expect_kw s "BY";
        Some (ident s)
      end
      else None
    in
    let order_by =
      if kw_is (peek s) "ORDER" then begin
        advance s;
        expect_kw s "BY";
        Some (ident s)
      end
      else None
    in
    Sql_ast.Select { items; tables; where; group_by; order_by }
  end
  else if kw_equal verb "INSERT" then begin
    expect_kw s "INTO";
    let table = ident s in
    let columns =
      match peek s with
      | Abdl.Lexer.LPAREN ->
        advance s;
        let cols = comma_separated s ident in
        expect s Abdl.Lexer.RPAREN;
        Some cols
      | _ -> None
    in
    expect_kw s "VALUES";
    expect s Abdl.Lexer.LPAREN;
    let values = comma_separated s literal in
    expect s Abdl.Lexer.RPAREN;
    Sql_ast.Insert { table; columns; values }
  end
  else if kw_equal verb "DELETE" then begin
    expect_kw s "FROM";
    let table = ident s in
    Sql_ast.Delete { table; where = where_clause s }
  end
  else if kw_equal verb "UPDATE" then begin
    let table = ident s in
    expect_kw s "SET";
    let assignment s =
      let col = ident s in
      expect s (Abdl.Lexer.OP "=");
      col, literal s
    in
    let sets = comma_separated s assignment in
    Sql_ast.Update { table; sets; where = where_clause s }
  end
  else fail "unknown SQL statement %S" (upper verb)

let wrap f src =
  try f (Abdl.Lexer.cursor src)
  with Abdl.Lexer.Lex_error msg -> raise (Parse_error msg)

let stmt src =
  wrap
    (fun s ->
      let parsed = statement s in
      begin
        match peek s with
        | Abdl.Lexer.EOF -> ()
        | Abdl.Lexer.SEMI ->
          (* what follows the separator is not parsed, but still lexed *)
          while peek s <> Abdl.Lexer.EOF do advance s done
        | tok -> fail "trailing input: %s" (Abdl.Lexer.token_to_string tok)
      end;
      parsed)
    src

let program src =
  wrap
    (fun s ->
      let rec loop acc =
        match peek s with
        | Abdl.Lexer.EOF -> List.rev acc
        | Abdl.Lexer.SEMI ->
          advance s;
          loop acc
        | _ -> loop (statement s :: acc)
      in
      loop [])
    src

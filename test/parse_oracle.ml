(* The list lexer and the list-stream SQL parser that the lexer cursor
   and [Relational.Sql_parser] replaced: the oracles of their equivalence
   properties. [lex] is the old [Abdl.Lexer.tokens] except that a lexical
   error ends the token list instead of raising, so the parser below can
   raise it where the cursor would: when it first reads past the last
   good token. [tokens] raises it at once, as the old lexer did. An
   integer literal past the [int] range is a lexical error here, as it is
   in the cursor, where the old lexer raised [Failure]. *)

open Abdl.Lexer

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* the tokens before the first lexical error, and that error *)
let lex src =
  let len = String.length src in
  let rec lex i acc =
    if i >= len then List.rev (EOF :: acc), None
    else
      let c = src.[i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then lex (i + 1) acc
      else if c = '(' then lex (i + 1) (LPAREN :: acc)
      else if c = ')' then lex (i + 1) (RPAREN :: acc)
      else if c = ',' then lex (i + 1) (COMMA :: acc)
      else if c = ';' then lex (i + 1) (SEMI :: acc)
      else if c = '\'' then lex_string (i + 1) (Buffer.create 16) acc
      else if c = '<' then
        if i + 1 < len && src.[i + 1] = '>' then lex (i + 2) (OP "<>" :: acc)
        else if i + 1 < len && src.[i + 1] = '=' then lex (i + 2) (OP "<=" :: acc)
        else lex (i + 1) (OP "<" :: acc)
      else if c = '>' then
        if i + 1 < len && src.[i + 1] = '=' then lex (i + 2) (OP ">=" :: acc)
        else lex (i + 1) (OP ">" :: acc)
      else if c = '=' then lex (i + 1) (OP "=" :: acc)
      else if c = '!' && i + 1 < len && src.[i + 1] = '=' then
        lex (i + 2) (OP "<>" :: acc)
      else if c = '+' || c = '*' || c = '/' then
        lex (i + 1) (OP (String.make 1 c) :: acc)
      else if c = '-' then
        if i + 1 < len && is_digit src.[i + 1] then lex_number i (i + 1) acc
        else lex (i + 1) (OP "-" :: acc)
      else if is_digit c then lex_number i (i + 1) acc
      else if is_ident_start c then lex_ident i (i + 1) acc
      else
        List.rev acc, Some (Lex_error (Printf.sprintf "unexpected character %C at %d" c i))
  and lex_string i buf acc =
    if i >= len then List.rev acc, Some (Lex_error "unterminated string literal")
    else if src.[i] = '\'' then
      if i + 1 < len && src.[i + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        lex_string (i + 2) buf acc
      end
      else lex (i + 1) (STRING (Buffer.contents buf) :: acc)
    else begin
      Buffer.add_char buf src.[i];
      lex_string (i + 1) buf acc
    end
  and lex_number start i acc =
    let j = ref i in
    let digits () = while !j < len && is_digit src.[!j] do incr j done in
    digits ();
    let fraction =
      !j < len && src.[!j] = '.' && !j + 1 < len && is_digit src.[!j + 1]
    in
    if fraction then begin
      incr j;
      digits ()
    end;
    let exponent = ref false in
    if !j < len && (src.[!j] = 'e' || src.[!j] = 'E') then begin
      let k =
        if !j + 1 < len && (src.[!j + 1] = '+' || src.[!j + 1] = '-') then !j + 2
        else !j + 1
      in
      if k < len && is_digit src.[k] then begin
        j := k;
        digits ();
        exponent := true
      end
    end;
    let text = String.sub src start (!j - start) in
    if fraction || !exponent then lex !j (FLOAT (float_of_string text) :: acc)
    else
      match int_of_string_opt text with
      | Some n -> lex !j (INT n :: acc)
      | None ->
        ( List.rev acc,
          Some (Lex_error (Printf.sprintf "integer literal out of range at %d" start)) )
  and lex_ident start i acc =
    let j = ref i in
    while !j < len && is_ident_char src.[!j] do incr j done;
    let text = String.sub src start (!j - start) in
    lex !j (IDENT text :: acc)
  in
  lex 0 []

let tokens src =
  match lex src with
  | toks, None -> toks
  | _, Some e -> raise e

(* --- the SQL parser over a token list --------------------------------- *)

open Relational

exception Parse_error = Sql_parser.Parse_error

(* [error] is raised by reading past the tokens *)
type stream = {
  mutable toks : token list;
  error : exn option;
}

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let peek s =
  match s.toks, s.error with
  | [], Some e -> raise e
  | [], None -> EOF
  | tok :: _, _ -> tok

let advance s =
  match s.toks with
  | [] -> ignore (peek s)
  | _ :: rest -> s.toks <- rest

let next s =
  let tok = peek s in
  advance s;
  tok

let upper = String.uppercase_ascii

let ident s =
  match next s with
  | IDENT name -> name
  | tok -> fail "expected identifier, got %s" (token_to_string tok)

let expect s tok =
  let got = next s in
  if got <> tok then
    fail "expected %s, got %s"
      (token_to_string tok)
      (token_to_string got)

let expect_kw s kw =
  match next s with
  | IDENT name when upper name = kw -> ()
  | tok -> fail "expected %s, got %s" kw (token_to_string tok)

let kw_is tok kw =
  match tok with
  | IDENT name -> upper name = kw
  | _ -> false

let literal s =
  match next s with
  | INT i -> Abdm.Value.Int i
  | FLOAT f -> Abdm.Value.Float f
  | STRING str -> Abdm.Value.Str str
  | IDENT name when upper name = "NULL" -> Abdm.Value.Null
  | IDENT name ->
    (* a bare identifier on the right of [=] may name the join column of
       the other table ([WHERE dept = dname]); the engine resolves it *)
    Abdm.Value.Str name
  | tok -> fail "expected literal, got %s" (token_to_string tok)

let comma_separated s parse_one =
  let rec more acc =
    match peek s with
    | COMMA ->
      advance s;
      more (parse_one s :: acc)
    | _ -> List.rev acc
  in
  more [ parse_one s ]

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
  | OP op_text ->
    begin
      match Abdm.Predicate.op_of_string op_text with
      | Some op -> B_pred (Abdm.Predicate.make col op (literal s))
      | None -> fail "expected comparison operator, got %s" op_text
    end
  | tok -> fail "expected comparison operator, got %s" (token_to_string tok)

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
  | LPAREN ->
    advance s;
    let e = bool_expr s in
    expect s RPAREN;
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
    | LPAREN ->
      advance s;
      let n =
        match next s with
        | INT n -> n
        | tok -> fail "expected length, got %s" (token_to_string tok)
      in
      expect s RPAREN;
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
  match upper name with
  | "COUNT" -> Some Abdl.Ast.Count
  | "SUM" -> Some Abdl.Ast.Sum
  | "AVG" -> Some Abdl.Ast.Avg
  | "MIN" -> Some Abdl.Ast.Min
  | "MAX" -> Some Abdl.Ast.Max
  | _ -> None

let select_item s =
  match peek s with
  | OP "*" ->
    advance s;
    Sql_ast.S_star
  | _ ->
    let name = ident s in
    match aggregate_of_name name, peek s with
    | Some agg, LPAREN ->
      advance s;
      let col =
        match peek s with
        | OP "*" ->
          advance s;
          "*"
        | _ -> ident s
      in
      expect s RPAREN;
      Sql_ast.S_agg (agg, col)
    | _ -> Sql_ast.S_col name

let stmt_of_stream s =
  let verb = ident s in
  match upper verb with
  | "CREATE" ->
    expect_kw s "TABLE";
    let name = ident s in
    expect s LPAREN;
    let columns = comma_separated s column_def in
    expect s RPAREN;
    Sql_ast.Create_table { Types.rel_name = name; rel_columns = columns }
  | "SELECT" ->
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
  | "INSERT" ->
    expect_kw s "INTO";
    let table = ident s in
    let columns =
      match peek s with
      | LPAREN ->
        advance s;
        let cols = comma_separated s ident in
        expect s RPAREN;
        Some cols
      | _ -> None
    in
    expect_kw s "VALUES";
    expect s LPAREN;
    let values = comma_separated s literal in
    expect s RPAREN;
    Sql_ast.Insert { table; columns; values }
  | "DELETE" ->
    expect_kw s "FROM";
    let table = ident s in
    Sql_ast.Delete { table; where = where_clause s }
  | "UPDATE" ->
    let table = ident s in
    expect_kw s "SET";
    let assignment s =
      let col = ident s in
      expect s (OP "=");
      col, literal s
    in
    let sets = comma_separated s assignment in
    Sql_ast.Update { table; sets; where = where_clause s }
  | other -> fail "unknown SQL statement %S" other

let wrap f src =
  let toks, error = lex src in
  try f { toks; error } with Lex_error msg -> raise (Parse_error msg)

let stmt src =
  wrap
    (fun s ->
      let parsed = stmt_of_stream s in
      begin
        match peek s with
        | EOF | SEMI -> ()
        | tok -> fail "trailing input: %s" (token_to_string tok)
      end;
      (* the old parser lexed the whole text first *)
      while peek s <> EOF do advance s done;
      parsed)
    src

let program src =
  wrap
    (fun s ->
      let rec loop acc =
        match peek s with
        | EOF -> List.rev acc
        | SEMI ->
          advance s;
          loop acc
        | _ -> loop (stmt_of_stream s :: acc)
      in
      loop [])
    src

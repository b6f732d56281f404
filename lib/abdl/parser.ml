exception Parse_error = Syntax.Parse_error

open Syntax

(* --- targets --------------------------------------------------------- *)

let aggregate_of_name name =
  if kw_equal name "COUNT" then Some Ast.Count
  else if kw_equal name "SUM" then Some Ast.Sum
  else if kw_equal name "AVG" then Some Ast.Avg
  else if kw_equal name "MIN" then Some Ast.Min
  else if kw_equal name "MAX" then Some Ast.Max
  else None

let target_item c =
  let name = ident c in
  if kw_equal name "ALL" then Ast.T_all
  else
    match aggregate_of_name name, peek c with
    | Some agg, Lexer.LPAREN ->
      advance c;
      let attr = ident c in
      expect c Lexer.RPAREN;
      Ast.T_agg (agg, attr)
    | _ -> Ast.T_attr name

let parenthesised c one =
  expect c Lexer.LPAREN;
  let items = comma_separated c one in
  expect c Lexer.RPAREN;
  items

let qualification c =
  expect c Lexer.LPAREN;
  let q = condition c in
  expect c Lexer.RPAREN;
  q

(* --- modifiers ------------------------------------------------------- *)

let arith_of_op = function
  | "+" -> Some Abdm.Modifier.Add
  | "-" -> Some Abdm.Modifier.Sub
  | "*" -> Some Abdm.Modifier.Mul
  | "/" -> Some Abdm.Modifier.Div
  | _ -> None

let modifier c =
  let attr = ident c in
  expect c (Lexer.OP "=");
  (* The arithmetic form is the attribute's own name followed by an
     arithmetic operator ("salary = salary + 100"); any other identifier
     is a bare string constant. *)
  match peek c with
  | Lexer.IDENT name when String.equal name attr ->
    advance c;
    begin
      match peek c with
      | Lexer.OP text when arith_of_op text <> None ->
        advance c;
        let op = Option.get (arith_of_op text) in
        Abdm.Modifier.Set_arith (attr, op, literal c)
      | _ -> Abdm.Modifier.Set_const (attr, literal_of_ident name)
    end
  | _ -> Abdm.Modifier.Set_const (attr, literal c)

(* --- requests -------------------------------------------------------- *)

let insert_keyword c =
  expect c (Lexer.OP "<");
  let attr = ident c in
  expect c Lexer.COMMA;
  let v = literal c in
  expect c (Lexer.OP ">");
  Abdm.Keyword.make attr v

let insert_body c =
  expect c Lexer.LPAREN;
  let keywords = comma_separated c insert_keyword in
  let text =
    match peek c with
    | Lexer.BAR ->
      advance c;
      (match next c with
      | Lexer.STRING text -> text
      | tok -> fail "expected a quoted text after |, got %s" (Lexer.token_to_string tok))
    | _ -> ""
  in
  expect c Lexer.RPAREN;
  let record =
    try Abdm.Record.make ~text keywords
    with Invalid_argument _ -> fail "INSERT: an attribute is named twice"
  in
  (* every record belongs to a file (§II.C.1): the store files it by it *)
  if Abdm.Record.file record = None then fail "INSERT: no FILE keyword names a file";
  record

let attribute_in_parens c =
  expect c Lexer.LPAREN;
  let attr = ident c in
  expect c Lexer.RPAREN;
  attr

let request_of_cursor c =
  let verb = ident c in
  if kw_equal verb "INSERT" then Ast.Insert (insert_body c)
  else if kw_equal verb "DELETE" then Ast.Delete (qualification c)
  else if kw_equal verb "UPDATE" then
    let query = qualification c in
    Ast.Update (query, parenthesised c modifier)
  else if kw_equal verb "RETRIEVE" then
    let query = qualification c in
    let targets = parenthesised c target_item in
    let by = if accept_kw c "BY" then Some (ident c) else None in
    Ast.Retrieve { query; targets; by }
  else if kw_equal verb "RETRIEVE_COMMON" || kw_equal verb "RETRIEVE_COMMON_ON"
  then begin
    let rc_left = qualification c in
    let rc_left_attr = attribute_in_parens c in
    if not (accept_kw c "AND") then
      fail "RETRIEVE_COMMON: expected AND, got %s" (Lexer.token_to_string (peek c));
    let rc_right = qualification c in
    let rc_right_attr = attribute_in_parens c in
    let rc_targets =
      match peek c with
      | Lexer.LPAREN -> parenthesised c target_item
      | _ -> [ Ast.T_all ]
    in
    Ast.Retrieve_common { rc_left; rc_left_attr; rc_right; rc_right_attr; rc_targets }
  end
  else fail "unknown ABDL operation %S" (String.uppercase_ascii verb)

let request = statement request_of_cursor

let transaction = program request_of_cursor

let query =
  parse (fun c ->
      let q = condition c in
      begin
        match peek c with
        | Lexer.EOF -> ()
        | tok -> fail "trailing input: %s" (Lexer.token_to_string tok)
      end;
      q)

exception Parse_error = Abdl.Syntax.Parse_error

open Abdl.Syntax

(* f(g(x)) — innermost application first in [fns] *)
let rec path c =
  let name = ident c in
  match peek c with
  | Abdl.Lexer.LPAREN ->
    advance c;
    let inner = path c in
    expect c Abdl.Lexer.RPAREN;
    { inner with Ast.fns = inner.Ast.fns @ [ name ] }
  | _ -> { Ast.var = name; fns = [] }

let comparison c =
  let comp_path = path c in
  let comp_op = relop c in
  let comp_value = literal c in
  { Ast.comp_path; comp_op; comp_value }

let such_that c =
  if accept_kw c "SUCH" then begin
    expect_kw c "THAT";
    let rec more acc =
      if accept_kw c "AND" then more (comparison c :: acc) else List.rev acc
    in
    more [ comparison c ]
  end
  else []

(* fn(var) — a single function application over the loop variable *)
let fn_of_var c expected_var =
  let p = path c in
  match p.Ast.fns with
  | [ fn ] when String.equal p.Ast.var expected_var -> fn
  | _ ->
    fail "expected a single application %s(%s)"
      (match p.Ast.fns with f :: _ -> f | [] -> "<fn>")
      expected_var

let selector c =
  expect_kw c "THE";
  let sel_var = ident c in
  expect_kw c "IN";
  let sel_entity = ident c in
  let sel_such_that = such_that c in
  { Ast.sel_var; sel_entity; sel_such_that }

let rec body_actions c var acc =
  if accept_kw c "END" then List.rev acc
  else if accept_kw c "PRINT" then
    body_actions c var (Ast.A_print (comma_separated c path) :: acc)
  else if accept_kw c "LET" then begin
    let fn = fn_of_var c var in
    expect c (Abdl.Lexer.OP "=");
    let value = literal c in
    body_actions c var (Ast.A_let { fn; value } :: acc)
  end
  else if accept_kw c "INCLUDE" then begin
    let fn = fn_of_var c var in
    let target = selector c in
    body_actions c var (Ast.A_include { fn; target } :: acc)
  end
  else if accept_kw c "EXCLUDE" then begin
    let fn = fn_of_var c var in
    let target = selector c in
    body_actions c var (Ast.A_exclude { fn; target } :: acc)
  end
  else
    fail "expected PRINT/LET/INCLUDE/EXCLUDE/END, got %s"
      (Abdl.Lexer.token_to_string (peek c))

let entity_key c =
  let super = ident c in
  match next c with
  | Abdl.Lexer.INT key -> super, key
  | tok ->
    fail "UNDER %s: expected an entity key, got %s" super
      (Abdl.Lexer.token_to_string tok)

let assignment c =
  let fn = ident c in
  expect c (Abdl.Lexer.OP "=");
  fn, literal c

let stmt_of_cursor c =
  let verb = ident c in
  if kw_equal verb "FOR" then begin
    expect_kw c "EACH";
    let var = ident c in
    expect_kw c "IN";
    let entity = ident c in
    let such_that = such_that c in
    let body = body_actions c var [] in
    if body = [] then fail "FOR EACH: empty body";
    Ast.For_each { var; entity; such_that; body }
  end
  else if kw_equal verb "CREATE" then begin
    let entity = ident c in
    let under =
      if accept_kw c "UNDER" then comma_separated c entity_key else []
    in
    expect c Abdl.Lexer.LPAREN;
    let assignments = comma_separated c assignment in
    expect c Abdl.Lexer.RPAREN;
    Ast.Create { entity; under; assignments }
  end
  else if kw_equal verb "DESTROY" then begin
    let var = ident c in
    expect_kw c "IN";
    let entity = ident c in
    let such_that = such_that c in
    Ast.Destroy { var; entity; such_that }
  end
  else fail "unknown Daplex statement %S" (String.uppercase_ascii verb)

let stmt = statement stmt_of_cursor

let program = program stmt_of_cursor

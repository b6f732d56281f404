exception Parse_error of string

type stream = { mutable toks : Lexer.token list }

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let peek s =
  match s.toks with
  | [] -> Lexer.EOF
  | tok :: _ -> tok

let advance s =
  match s.toks with
  | [] -> ()
  | _ :: rest -> s.toks <- rest

let next s =
  let tok = peek s in
  advance s;
  tok

let expect s tok =
  let got = next s in
  if got <> tok then
    fail "expected %s, got %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string got)

let keyword_is tok name =
  match tok with
  | Lexer.IDENT s -> String.uppercase_ascii s = name
  | _ -> false

let ident s =
  match next s with
  | Lexer.IDENT name -> name
  | tok -> fail "expected identifier, got %s" (Lexer.token_to_string tok)

let literal s =
  match next s with
  | Lexer.INT i -> Abdm.Value.Int i
  | Lexer.FLOAT f -> Abdm.Value.Float f
  | Lexer.STRING str -> Abdm.Value.Str str
  | Lexer.IDENT name when String.uppercase_ascii name = "NULL" -> Abdm.Value.Null
  | Lexer.IDENT name ->
    (* the paper writes bare identifiers for string values: (FILE = course) *)
    Abdm.Value.Str name
  | tok -> fail "expected literal, got %s" (Lexer.token_to_string tok)

(* --- qualifications ------------------------------------------------- *)

type bexpr =
  | B_pred of Abdm.Predicate.t
  | B_and of bexpr * bexpr
  | B_or of bexpr * bexpr

let rec to_dnf = function
  | B_pred p -> Abdm.Query.conj [ p ]
  | B_or (a, b) -> Abdm.Query.disj [ to_dnf a; to_dnf b ]
  | B_and (a, b) -> Abdm.Query.conj_and (to_dnf a) (to_dnf b)

let relop s =
  match next s with
  | Lexer.OP op ->
    begin
      match Abdm.Predicate.op_of_string op with
      | Some o -> o
      | None -> fail "expected relational operator, got %s" op
    end
  | tok -> fail "expected relational operator, got %s" (Lexer.token_to_string tok)

let predicate s =
  let attr = ident s in
  let op = relop s in
  let v = literal s in
  B_pred (Abdm.Predicate.make attr op v)

let rec bool_expr s =
  let left = bool_term s in
  if keyword_is (peek s) "OR" then begin
    advance s;
    B_or (left, bool_expr s)
  end
  else left

and bool_term s =
  let left = bool_factor s in
  if keyword_is (peek s) "AND" then begin
    advance s;
    B_and (left, bool_term s)
  end
  else left

and bool_factor s =
  match peek s with
  | Lexer.LPAREN ->
    advance s;
    let e = bool_expr s in
    expect s Lexer.RPAREN;
    e
  | _ -> predicate s

let qualification s =
  expect s Lexer.LPAREN;
  let e = bool_expr s in
  expect s Lexer.RPAREN;
  to_dnf e

(* --- targets --------------------------------------------------------- *)

let aggregate_of_name name =
  match String.uppercase_ascii name with
  | "COUNT" -> Some Ast.Count
  | "SUM" -> Some Ast.Sum
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | _ -> None

let target_item s =
  let name = ident s in
  if String.uppercase_ascii name = "ALL" then Ast.T_all
  else
    match aggregate_of_name name, peek s with
    | Some agg, Lexer.LPAREN ->
      advance s;
      let attr = ident s in
      expect s Lexer.RPAREN;
      Ast.T_agg (agg, attr)
    | _ -> Ast.T_attr name

let target_list s =
  expect s Lexer.LPAREN;
  let rec items acc =
    let item = target_item s in
    match peek s with
    | Lexer.COMMA ->
      advance s;
      items (item :: acc)
    | _ -> List.rev (item :: acc)
  in
  let targets = items [] in
  expect s Lexer.RPAREN;
  targets

(* --- modifiers ------------------------------------------------------- *)

let arith_of_op = function
  | "+" -> Some Abdm.Modifier.Add
  | "-" -> Some Abdm.Modifier.Sub
  | "*" -> Some Abdm.Modifier.Mul
  | "/" -> Some Abdm.Modifier.Div
  | _ -> None

let modifier s =
  let attr = ident s in
  expect s (Lexer.OP "=");
  (* Arithmetic form needs two tokens of lookahead: the attribute's own
     name followed by an arithmetic operator ("salary = salary + 100");
     any other identifier is a bare string constant. *)
  match s.toks with
  | Lexer.IDENT name :: Lexer.OP op_text :: _
    when String.equal name attr && arith_of_op op_text <> None ->
    advance s;
    advance s;
    let op =
      match arith_of_op op_text with
      | Some op -> op
      | None -> assert false
    in
    let v = literal s in
    Abdm.Modifier.Set_arith (attr, op, v)
  | _ -> Abdm.Modifier.Set_const (attr, literal s)

let modifier_list s =
  expect s Lexer.LPAREN;
  let rec items acc =
    let item = modifier s in
    match peek s with
    | Lexer.COMMA ->
      advance s;
      items (item :: acc)
    | _ -> List.rev (item :: acc)
  in
  let modifiers = items [] in
  expect s Lexer.RPAREN;
  modifiers

(* --- requests -------------------------------------------------------- *)

let insert_keyword s =
  expect s (Lexer.OP "<");
  let attr = ident s in
  expect s Lexer.COMMA;
  let v = literal s in
  expect s (Lexer.OP ">");
  Abdm.Keyword.make attr v

let insert_body s =
  expect s Lexer.LPAREN;
  let rec items acc =
    let item = insert_keyword s in
    match peek s with
    | Lexer.COMMA ->
      advance s;
      items (item :: acc)
    | _ -> List.rev (item :: acc)
  in
  let keywords = items [] in
  let text =
    match peek s with
    | Lexer.BAR ->
      advance s;
      (match next s with
      | Lexer.STRING text -> text
      | tok -> fail "expected a quoted text after |, got %s" (Lexer.token_to_string tok))
    | _ -> ""
  in
  expect s Lexer.RPAREN;
  Abdm.Record.make ~text keywords

let by_clause s =
  if keyword_is (peek s) "BY" then begin
    advance s;
    Some (ident s)
  end
  else None

let request_of_stream s =
  let verb = ident s in
  match String.uppercase_ascii verb with
  | "INSERT" -> Ast.Insert (insert_body s)
  | "DELETE" -> Ast.Delete (qualification s)
  | "UPDATE" ->
    let query = qualification s in
    let modifiers = modifier_list s in
    Ast.Update (query, modifiers)
  | "RETRIEVE" ->
    let query = qualification s in
    let targets = target_list s in
    let by = by_clause s in
    Ast.Retrieve { query; targets; by }
  | "RETRIEVE_COMMON" | "RETRIEVE_COMMON_ON" ->
    let rc_left = qualification s in
    expect s Lexer.LPAREN;
    let rc_left_attr = ident s in
    expect s Lexer.RPAREN;
    begin
      match next s with
      | Lexer.IDENT kw when String.uppercase_ascii kw = "AND" -> ()
      | tok -> fail "RETRIEVE_COMMON: expected AND, got %s" (Lexer.token_to_string tok)
    end;
    let rc_right = qualification s in
    expect s Lexer.LPAREN;
    let rc_right_attr = ident s in
    expect s Lexer.RPAREN;
    let rc_targets =
      match peek s with
      | Lexer.LPAREN -> target_list s
      | _ -> [ Ast.T_all ]
    in
    Ast.Retrieve_common { rc_left; rc_left_attr; rc_right; rc_right_attr; rc_targets }
  | other -> fail "unknown ABDL operation %S" other

let wrap_lex f src =
  match f src with
  | result -> result
  | exception Lexer.Lex_error msg -> raise (Parse_error msg)

let request src =
  let run src =
    let s = { toks = Lexer.tokens src } in
    let r = request_of_stream s in
    begin
      match peek s with
      | Lexer.EOF | Lexer.SEMI -> ()
      | tok -> fail "trailing input: %s" (Lexer.token_to_string tok)
    end;
    r
  in
  wrap_lex run src

let transaction src =
  let run src =
    let s = { toks = Lexer.tokens src } in
    let rec loop acc =
      match peek s with
      | Lexer.EOF -> List.rev acc
      | Lexer.SEMI ->
        advance s;
        loop acc
      | _ -> loop (request_of_stream s :: acc)
    in
    loop []
  in
  wrap_lex run src

let query src =
  let run src =
    let s = { toks = Lexer.tokens src } in
    let q = to_dnf (bool_expr s) in
    begin
      match peek s with
      | Lexer.EOF -> ()
      | tok -> fail "trailing input: %s" (Lexer.token_to_string tok)
    end;
    q
  in
  wrap_lex run src

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Parse_error msg)) fmt

let parse f src =
  try f (Lexer.cursor src) with Lexer.Lex_error msg -> raise (Parse_error msg)

let peek = Lexer.peek

let advance = Lexer.advance

let next c =
  let tok = peek c in
  advance c;
  tok

let finish c =
  match peek c with
  | Lexer.EOF -> ()
  | Lexer.SEMI ->
    (* what follows the separator is not parsed, but still lexed *)
    while peek c <> Lexer.EOF do advance c done
  | tok -> fail "trailing input: %s" (Lexer.token_to_string tok)

let statement f =
  parse (fun c ->
      let parsed = f c in
      finish c;
      parsed)

let program f =
  parse (fun c ->
      let rec loop acc =
        match peek c with
        | Lexer.EOF -> List.rev acc
        | Lexer.SEMI ->
          advance c;
          loop acc
        | _ -> loop (f c :: acc)
      in
      loop [])

let rec same_upper name kw i =
  i = String.length kw
  || Char.uppercase_ascii (String.unsafe_get name i) = String.unsafe_get kw i
     && same_upper name kw (i + 1)

let kw_equal name kw =
  String.length name = String.length kw && same_upper name kw 0

let kw_is tok kw =
  match tok with
  | Lexer.IDENT name -> kw_equal name kw
  | _ -> false

let accept_kw c kw =
  kw_is (peek c) kw
  && begin
    advance c;
    true
  end

let ident c =
  match next c with
  | Lexer.IDENT name -> name
  | tok -> fail "expected identifier, got %s" (Lexer.token_to_string tok)

let expect c tok =
  let got = next c in
  if got <> tok then
    fail "expected %s, got %s" (Lexer.token_to_string tok)
      (Lexer.token_to_string got)

let expect_kw c kw =
  match next c with
  | Lexer.IDENT name when kw_equal name kw -> ()
  | tok -> fail "expected %s, got %s" kw (Lexer.token_to_string tok)

let literal_of_ident name =
  if kw_equal name "NULL" then Abdm.Value.Null else Abdm.Value.Str name

let literal c =
  match next c with
  | Lexer.INT i -> Abdm.Value.Int i
  | Lexer.FLOAT f -> Abdm.Value.Float f
  | Lexer.STRING str -> Abdm.Value.Str str
  | Lexer.IDENT name -> literal_of_ident name
  | tok -> fail "expected literal, got %s" (Lexer.token_to_string tok)

let rec comma_separated c one =
  let first = one c in
  match peek c with
  | Lexer.COMMA ->
    advance c;
    first :: comma_separated c one
  | _ -> [ first ]

let relop c =
  match next c with
  | Lexer.OP text ->
    begin
      match Abdm.Predicate.op_of_string text with
      | Some op -> op
      | None -> fail "expected comparison operator, got %s" text
    end
  | tok -> fail "expected comparison operator, got %s" (Lexer.token_to_string tok)

let comparison c =
  let attribute = ident c in
  let op = relop c in
  Abdm.Predicate.make attribute op (literal c)

let rec condition c =
  let left = conjunction c in
  if accept_kw c "OR" then Abdm.Query.disj [ left; condition c ] else left

and conjunction c =
  let left = factor c in
  if accept_kw c "AND" then Abdm.Query.conj_and left (conjunction c) else left

and factor c =
  match peek c with
  | Lexer.LPAREN ->
    advance c;
    let q = condition c in
    expect c Lexer.RPAREN;
    q
  | _ -> Abdm.Query.conj [ comparison c ]

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | OP of string
  | EOF

exception Lex_error of string

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* '.' admits SQL-style qualified names (t.col) as single identifiers *)
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

let tokens src =
  let len = String.length src in
  let rec lex i acc =
    if i >= len then List.rev (EOF :: acc)
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
        (* A '-' starting a number is a negative literal; otherwise an
           arithmetic operator. *)
        if i + 1 < len && is_digit src.[i + 1] then lex_number i (i + 1) acc
        else lex (i + 1) (OP "-" :: acc)
      else if is_digit c then lex_number i (i + 1) acc
      else if is_ident_start c then lex_ident i (i + 1) acc
      else raise (Lex_error (Printf.sprintf "unexpected character %C at %d" c i))
  and lex_string i buf acc =
    if i >= len then raise (Lex_error "unterminated string literal")
    else if src.[i] = '\'' then
      if i + 1 < len && src.[i + 1] = '\'' then begin
        (* doubled quote escapes a quote *)
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
    (* an exponent: e or E, an optional sign, then at least one digit *)
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
    else lex !j (INT (int_of_string text) :: acc)
  and lex_ident start i acc =
    let j = ref i in
    while !j < len && is_ident_char src.[!j] do incr j done;
    let text = String.sub src start (!j - start) in
    lex !j (IDENT text :: acc)
  in
  lex 0 []

let token_to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "'%s'" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | SEMI -> ";"
  | OP s -> s
  | EOF -> "<eof>"

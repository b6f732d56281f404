type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | BAR
  | OP of string
  | EOF

exception Lex_error of string

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

(* '.' admits SQL-style qualified names (t.col) as single identifiers *)
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '.'

let is_digit c = c >= '0' && c <= '9'

(* The lookahead token is lexed when first peeked, so a parser that
   stops at a syntax error never lexes the text after it. [pos] is the
   first byte after the lookahead once it is lexed, the first unread
   byte before. *)
type cursor = {
  src : string;
  mutable pos : int;
  mutable tok : token;
  mutable ready : bool;
}

let cursor src = { src; pos = 0; tok = EOF; ready = false }

let rec skip_digits src len j =
  if j < len && is_digit (String.unsafe_get src j) then
    skip_digits src len (j + 1)
  else j

let rec skip_ident src len j =
  if j < len && is_ident_char (String.unsafe_get src j) then
    skip_ident src len (j + 1)
  else j

let rec closing_quote src len j =
  if j >= len then raise (Lex_error "unterminated string literal")
  else if String.unsafe_get src j = '\'' then j
  else closing_quote src len (j + 1)

let rec decimal src i j n =
  if i = j then n
  else
    decimal src (i + 1) j ((10 * n) + Char.code (String.unsafe_get src i) - 48)

(* [src.[i] = ch], false past the end *)
let char_at src len i ch = i < len && String.unsafe_get src i = ch

let set c tok pos =
  c.tok <- tok;
  c.pos <- pos

(* a literal holding a doubled quote: [i] is just past the opening quote *)
let escaped_string c src len i =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= len then raise (Lex_error "unterminated string literal")
    else if src.[i] = '\'' then
      if i + 1 < len && src.[i + 1] = '\'' then begin
        (* doubled quote escapes a quote *)
        Buffer.add_char buf '\'';
        go (i + 2)
      end
      else i + 1
    else begin
      Buffer.add_char buf src.[i];
      go (i + 1)
    end
  in
  let next = go i in
  set c (STRING (Buffer.contents buf)) next

(* without a doubled quote the literal is one [String.sub] *)
let lex_string c i =
  let src = c.src in
  let len = String.length src in
  let j = closing_quote src len i in
  if char_at src len (j + 1) '\'' then escaped_string c src len i
  else set c (STRING (String.sub src i (j - i))) (j + 1)

let lex_number c start i =
  let src = c.src in
  let len = String.length src in
  let j = skip_digits src len i in
  let fraction =
    j < len && src.[j] = '.' && j + 1 < len && is_digit src.[j + 1]
  in
  let j = if fraction then skip_digits src len (j + 1) else j in
  (* an exponent: e or E, an optional sign, then at least one digit *)
  let exponent_at =
    if j < len && (src.[j] = 'e' || src.[j] = 'E') then
      let k =
        if j + 1 < len && (src.[j + 1] = '+' || src.[j + 1] = '-') then j + 2
        else j + 1
      in
      if k < len && is_digit src.[k] then k else -1
    else -1
  in
  let j = if exponent_at >= 0 then skip_digits src len exponent_at else j in
  if fraction || exponent_at >= 0 then
    set c (FLOAT (float_of_string (String.sub src start (j - start)))) j
  else
    let negative = src.[start] = '-' in
    let digits = if negative then start + 1 else start in
    if j - digits <= 18 then
      (* at most 18 digits cannot overflow: read them in place *)
      let n = decimal src digits j 0 in
      set c (INT (if negative then -n else n)) j
    else
      match int_of_string_opt (String.sub src start (j - start)) with
      | Some n -> set c (INT n) j
      | None ->
        raise
          (Lex_error
             (Printf.sprintf "integer literal out of range at %d" start))

let rec lex c =
  let src = c.src in
  let len = String.length src in
  let i = c.pos in
  if i >= len then set c EOF i
  else
    match src.[i] with
    | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- i + 1;
      lex c
    | '(' -> set c LPAREN (i + 1)
    | ')' -> set c RPAREN (i + 1)
    | ',' -> set c COMMA (i + 1)
    | ';' -> set c SEMI (i + 1)
    | '|' -> set c BAR (i + 1)
    | '\'' -> lex_string c (i + 1)
    | '<' ->
      if char_at src len (i + 1) '>' then set c (OP "<>") (i + 2)
      else if char_at src len (i + 1) '=' then set c (OP "<=") (i + 2)
      else set c (OP "<") (i + 1)
    | '>' ->
      if char_at src len (i + 1) '=' then set c (OP ">=") (i + 2)
      else set c (OP ">") (i + 1)
    | '=' -> set c (OP "=") (i + 1)
    | '!' when char_at src len (i + 1) '=' -> set c (OP "<>") (i + 2)
    | '+' -> set c (OP "+") (i + 1)
    | '*' -> set c (OP "*") (i + 1)
    | '/' -> set c (OP "/") (i + 1)
    | '-' ->
      (* A '-' starting a number is a negative literal; otherwise an
         arithmetic operator. *)
      if i + 1 < len && is_digit src.[i + 1] then lex_number c i (i + 1)
      else set c (OP "-") (i + 1)
    | ch when is_digit ch -> lex_number c i (i + 1)
    | ch when is_ident_start ch ->
      let j = skip_ident src len (i + 1) in
      set c (IDENT (String.sub src i (j - i))) j
    | ch ->
      raise (Lex_error (Printf.sprintf "unexpected character %C at %d" ch i))

let peek c =
  if not c.ready then begin
    lex c;
    c.ready <- true
  end;
  c.tok

let advance c =
  if not c.ready then lex c;
  c.ready <- false

let token_to_string = function
  | IDENT s -> s
  | INT i -> string_of_int i
  | FLOAT f -> Printf.sprintf "%g" f
  | STRING s -> Printf.sprintf "'%s'" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | SEMI -> ";"
  | BAR -> "|"
  | OP s -> s
  | EOF -> "<eof>"

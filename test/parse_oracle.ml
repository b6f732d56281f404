(* The list lexer and the list-stream parsers that the lexer cursor and
   [Abdl.Syntax] replaced: the oracles of their equivalence properties.
   [lex] is the old [Abdl.Lexer.tokens] except that a lexical error ends
   the token list instead of raising, so a parser over it raises that
   error where the cursor would: when it first reads past the last good
   token. [tokens] raises it at once, as the old lexer did. An integer
   literal past the [int] range is a lexical error here, as it is in the
   cursor, where the lexer before the cursor raised [Failure].

   Each old parser is kept as it was, over the one list-stream prelude
   they all copied; a parser of one statement lexed the whole text
   before parsing, so it reads to the end ([drain]) before it returns.
   The old DL/I ISRT first copied every token into an array, so it raises
   a lexical error anywhere in the call before it parses. *)

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
      else if c = '|' then lex (i + 1) (BAR :: acc)
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

(* --- the list-stream prelude every old parser copied ------------------ *)

exception Parse_error = Abdl.Syntax.Parse_error

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
  | IDENT name -> Abdm.Value.Str name
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

let wrap f src =
  let toks, error = lex src in
  try f { toks; error } with Lex_error msg -> raise (Parse_error msg)

(* the end of one statement: EOF or [;], then the rest of the text *)
let drain s =
  begin
    match peek s with
    | EOF | SEMI -> ()
    | tok -> fail "trailing input: %s" (token_to_string tok)
  end;
  while peek s <> EOF do advance s done

(* --- SQL ------------------------------------------------------------------ *)

module Old_sql = struct
  open Relational

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

  let stmt src =
    wrap
      (fun s ->
        let parsed = stmt_of_stream s in
        drain s;
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
end

(* --- ABDL ----------------------------------------------------------------- *)

module Old_abdl = struct
  module Lexer = Abdl.Lexer
  module Ast = Abdl.Ast

  let keyword_is = kw_is

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

  let request src =
    wrap
      (fun s ->
        let r = request_of_stream s in
        drain s;
        r)
      src

  let transaction src =
    wrap
      (fun s ->
        let rec loop acc =
          match peek s with
          | EOF -> List.rev acc
          | SEMI ->
            advance s;
            loop acc
          | _ -> loop (request_of_stream s :: acc)
        in
        loop [])
      src

  let query src =
    wrap
      (fun s ->
        let q = to_dnf (bool_expr s) in
        begin
          match peek s with
          | EOF -> ()
          | tok -> fail "trailing input: %s" (token_to_string tok)
        end;
        q)
      src
end

(* --- CODASYL-DML ---------------------------------------------------------- *)

module Old_codasyl = struct
  module Ast = Codasyl_dml.Ast

  (* ident [, ident]* — stops before a keyword terminator like IN/TO/FROM. *)
  let ident_list s =
    let rec more acc =
      match peek s with
      | Abdl.Lexer.COMMA ->
        advance s;
        more (ident s :: acc)
      | _ -> List.rev acc
    in
    more [ ident s ]

  let using_clause s =
    expect_kw s "USING";
    let items = ident_list s in
    expect_kw s "IN";
    let record = ident s in
    items, record

  let parse_find s =
    match next s with
    | Abdl.Lexer.IDENT name ->
      begin
        match upper name with
        | "ANY" ->
          let record = ident s in
          let items, in_record = using_clause s in
          if not (String.equal record in_record) then
            fail "FIND ANY: USING ... IN %s must name %s" in_record record;
          Ast.Find_any { record; items }
        | "CURRENT" ->
          let record = ident s in
          expect_kw s "WITHIN";
          let set = ident s in
          Ast.Find_current { record; set }
        | "DUPLICATE" ->
          expect_kw s "WITHIN";
          let set = ident s in
          let items, record = using_clause s in
          Ast.Find_duplicate { set; record; items }
        | "FIRST" | "LAST" | "NEXT" | "PRIOR" ->
          let pos =
            match upper name with
            | "FIRST" -> Ast.First
            | "LAST" -> Ast.Last
            | "NEXT" -> Ast.Next
            | "PRIOR" -> Ast.Prior
            | _ -> assert false
          in
          let record = ident s in
          expect_kw s "WITHIN";
          let set = ident s in
          Ast.Find_position { pos; record; set }
        | "OWNER" ->
          expect_kw s "WITHIN";
          let set = ident s in
          Ast.Find_owner { set }
        | _ ->
          (* FIND r WITHIN s CURRENT USING items IN r *)
          let record = name in
          expect_kw s "WITHIN";
          let set = ident s in
          expect_kw s "CURRENT";
          let items, in_record = using_clause s in
          if not (String.equal record in_record) then
            fail "FIND ... CURRENT: USING ... IN %s must name %s" in_record record;
          Ast.Find_within_current { record; set; items }
      end
    | tok -> fail "FIND: unexpected %s" (Abdl.Lexer.token_to_string tok)

  let parse_get s =
    match peek s with
    | Abdl.Lexer.EOF | Abdl.Lexer.SEMI -> Ast.Get_current
    | _ ->
      let first = ident s in
      match peek s with
      | Abdl.Lexer.EOF | Abdl.Lexer.SEMI -> Ast.Get_record first
      | Abdl.Lexer.COMMA ->
        let rec more acc =
          match peek s with
          | Abdl.Lexer.COMMA ->
            advance s;
            more (ident s :: acc)
          | _ -> List.rev acc
        in
        let items = more [ first ] in
        expect_kw s "IN";
        let record = ident s in
        Ast.Get_items { items; record }
      | tok when kw_is tok "IN" ->
        advance s;
        let record = ident s in
        Ast.Get_items { items = [ first ]; record }
      | tok -> fail "GET: unexpected %s" (Abdl.Lexer.token_to_string tok)

  let parse_modify s =
    let first = ident s in
    match peek s with
    | Abdl.Lexer.EOF | Abdl.Lexer.SEMI -> Ast.Modify { record = first; items = [] }
    | Abdl.Lexer.COMMA ->
      let rec more acc =
        match peek s with
        | Abdl.Lexer.COMMA ->
          advance s;
          more (ident s :: acc)
        | _ -> List.rev acc
      in
      let items = more [ first ] in
      expect_kw s "IN";
      let record = ident s in
      Ast.Modify { record; items }
    | tok when kw_is tok "IN" ->
      advance s;
      let record = ident s in
      Ast.Modify { record; items = [ first ] }
    | tok -> fail "MODIFY: unexpected %s" (Abdl.Lexer.token_to_string tok)

  let stmt_of_stream s =
    let verb = ident s in
    match upper verb with
    | "MOVE" ->
      let value = literal s in
      expect_kw s "TO";
      let item = ident s in
      expect_kw s "IN";
      let record = ident s in
      Ast.Move { value; item; record }
    | "FIND" -> Ast.Find (parse_find s)
    | "GET" -> Ast.Get (parse_get s)
    | "STORE" -> Ast.Store (ident s)
    | "CONNECT" ->
      let record = ident s in
      expect_kw s "TO";
      Ast.Connect { record; sets = ident_list s }
    | "DISCONNECT" ->
      let record = ident s in
      expect_kw s "FROM";
      Ast.Disconnect { record; sets = ident_list s }
    | "MODIFY" -> parse_modify s
    | "ERASE" ->
      let first = ident s in
      if upper first = "ALL" then Ast.Erase { record = ident s; all = true }
      else Ast.Erase { record = first; all = false }
    | other -> fail "unknown CODASYL-DML statement %S" other

  let stmt src =
    wrap
      (fun s ->
        let parsed = stmt_of_stream s in
        drain s;
        parsed)
      src

  (* Is this line the opening of the §VI.B.4 loop idiom? Both the bare form
     and the COBOL "PERFORM UNTIL EOF = 'YES'" spelling are accepted. *)
  let is_perform_open line =
    match tokens line with
    | Abdl.Lexer.IDENT p :: Abdl.Lexer.IDENT u :: Abdl.Lexer.IDENT e :: _
      when upper p = "PERFORM" && upper u = "UNTIL" && upper e = "EOF" ->
      true
    | _ | (exception Abdl.Lexer.Lex_error _) -> false

  let is_perform_close line =
    match tokens line with
    | [ Abdl.Lexer.IDENT e; Abdl.Lexer.IDENT p; Abdl.Lexer.EOF ]
      when upper e = "END" && upper p = "PERFORM" ->
      true
    | _ | (exception Abdl.Lexer.Lex_error _) -> false

  let program src =
    let raw_statements =
      (* strip comments, split lines and ';'-separated statements *)
      String.split_on_char '\n' src
      |> List.concat_map (fun line ->
             let line =
               match Daplex.Str_search.find line "--" with
               | Some i -> String.sub line 0 i
               | None -> line
             in
             String.split_on_char ';' line)
      |> List.filter_map (fun part ->
             let part = String.trim part in
             if String.equal part "" then None else Some part)
    in
    (* fold with a block structure for PERFORM UNTIL EOF ... END PERFORM *)
    let rec build acc lines =
      match lines with
      | [] -> List.rev acc, []
      | line :: rest ->
        if is_perform_close line then List.rev acc, rest
        else if is_perform_open line then begin
          let body, rest' = build [] rest in
          build (Ast.Perform_until_eof body :: acc) rest'
        end
        else build (stmt line :: acc) rest
    in
    let stmts, leftover = build [] raw_statements in
    if leftover <> [] then fail "unmatched END PERFORM";
    (* an unterminated PERFORM block: build consumed everything without a
       closer; detect by rebuilding depth *)
    let rec check_depth depth = function
      | [] -> if depth > 0 then fail "PERFORM UNTIL EOF without END PERFORM"
      | line :: rest ->
        if is_perform_open line then check_depth (depth + 1) rest
        else if is_perform_close line then
          if depth = 0 then fail "unmatched END PERFORM"
          else check_depth (depth - 1) rest
        else check_depth depth rest
    in
    check_depth 0 raw_statements;
    stmts
end

(* --- Daplex-DML ----------------------------------------------------------- *)

module Old_daplex = struct
  module Ast = Daplex_dml.Ast

  (* f(g(x)) — innermost application first in [fns] *)
  let rec path s =
    let name = ident s in
    match peek s with
    | Abdl.Lexer.LPAREN ->
      advance s;
      let inner = path s in
      expect s Abdl.Lexer.RPAREN;
      { inner with Ast.fns = inner.Ast.fns @ [ name ] }
    | _ -> { Ast.var = name; fns = [] }

  let relop s =
    match next s with
    | Abdl.Lexer.OP op_text ->
      begin
        match Abdm.Predicate.op_of_string op_text with
        | Some op -> op
        | None -> fail "expected relational operator, got %s" op_text
      end
    | tok -> fail "expected relational operator, got %s" (Abdl.Lexer.token_to_string tok)

  let comparison s =
    let comp_path = path s in
    let comp_op = relop s in
    let comp_value = literal s in
    { Ast.comp_path; comp_op; comp_value }

  let such_that s =
    if kw_is (peek s) "SUCH" then begin
      advance s;
      expect_kw s "THAT";
      let rec more acc =
        if kw_is (peek s) "AND" then begin
          advance s;
          more (comparison s :: acc)
        end
        else List.rev acc
      in
      more [ comparison s ]
    end
    else []

  let comma_separated s parse_one =
    let rec more acc =
      match peek s with
      | Abdl.Lexer.COMMA ->
        advance s;
        more (parse_one s :: acc)
      | _ -> List.rev acc
    in
    more [ parse_one s ]

  (* fn(var) — a single function application over the loop variable *)
  let fn_of_var s expected_var =
    let p = path s in
    match p.Ast.fns with
    | [ fn ] when String.equal p.Ast.var expected_var -> fn
    | _ ->
      fail "expected a single application %s(%s)"
        (match p.Ast.fns with f :: _ -> f | [] -> "<fn>")
        expected_var

  let selector s =
    expect_kw s "THE";
    let sel_var = ident s in
    expect_kw s "IN";
    let sel_entity = ident s in
    let sel_such_that = such_that s in
    { Ast.sel_var; sel_entity; sel_such_that }

  let rec body_actions s var acc =
    match peek s with
    | Abdl.Lexer.IDENT name when upper name = "END" ->
      advance s;
      List.rev acc
    | Abdl.Lexer.IDENT name when upper name = "PRINT" ->
      advance s;
      body_actions s var (Ast.A_print (comma_separated s path) :: acc)
    | Abdl.Lexer.IDENT name when upper name = "LET" ->
      advance s;
      let fn = fn_of_var s var in
      expect s (Abdl.Lexer.OP "=");
      let value = literal s in
      body_actions s var (Ast.A_let { fn; value } :: acc)
    | Abdl.Lexer.IDENT name when upper name = "INCLUDE" ->
      advance s;
      let fn = fn_of_var s var in
      let target = selector s in
      body_actions s var (Ast.A_include { fn; target } :: acc)
    | Abdl.Lexer.IDENT name when upper name = "EXCLUDE" ->
      advance s;
      let fn = fn_of_var s var in
      let target = selector s in
      body_actions s var (Ast.A_exclude { fn; target } :: acc)
    | tok ->
      fail "expected PRINT/LET/INCLUDE/EXCLUDE/END, got %s"
        (Abdl.Lexer.token_to_string tok)

  let stmt_of_stream s =
    let verb = ident s in
    match upper verb with
    | "FOR" ->
      expect_kw s "EACH";
      let var = ident s in
      expect_kw s "IN";
      let entity = ident s in
      let such_that = such_that s in
      let body = body_actions s var [] in
      if body = [] then fail "FOR EACH: empty body";
      Ast.For_each { var; entity; such_that; body }
    | "CREATE" ->
      let entity = ident s in
      let under =
        if kw_is (peek s) "UNDER" then begin
          advance s;
          comma_separated s (fun s ->
              let super = ident s in
              match next s with
              | Abdl.Lexer.INT key -> super, key
              | tok ->
                fail "UNDER %s: expected an entity key, got %s" super
                  (Abdl.Lexer.token_to_string tok))
        end
        else []
      in
      expect s Abdl.Lexer.LPAREN;
      let assignment s =
        let fn = ident s in
        expect s (Abdl.Lexer.OP "=");
        fn, literal s
      in
      let assignments = comma_separated s assignment in
      expect s Abdl.Lexer.RPAREN;
      Ast.Create { entity; under; assignments }
    | "DESTROY" ->
      let var = ident s in
      expect_kw s "IN";
      let entity = ident s in
      let such_that = such_that s in
      Ast.Destroy { var; entity; such_that }
    | other -> fail "unknown Daplex statement %S" other

  let stmt src =
    wrap
      (fun s ->
        let parsed = stmt_of_stream s in
        drain s;
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
end

(* --- DL/I ----------------------------------------------------------------- *)

module Old_dli = struct
  module Dli_ast = Hierarchical.Dli_ast

  let qualification s =
    let q_field = ident s in
    let q_op =
      match next s with
      | Abdl.Lexer.OP op_text ->
        begin
          match Abdm.Predicate.op_of_string op_text with
          | Some op -> op
          | None -> fail "expected comparison operator, got %s" op_text
        end
      | tok -> fail "expected comparison operator, got %s" (Abdl.Lexer.token_to_string tok)
    in
    let q_value = literal s in
    { Dli_ast.q_field; q_op; q_value }

  let ssa s =
    let ssa_segment = ident s in
    match peek s with
    | Abdl.Lexer.LPAREN ->
      advance s;
      let qual = qualification s in
      expect s Abdl.Lexer.RPAREN;
      { Dli_ast.ssa_segment; ssa_qual = Some qual }
    | _ -> { Dli_ast.ssa_segment; ssa_qual = None }

  let rec ssa_list s acc =
    match peek s with
    | Abdl.Lexer.IDENT _ -> ssa_list s (ssa s :: acc)
    | _ -> List.rev acc

  let field_assignments s =
    expect s Abdl.Lexer.LPAREN;
    let one s =
      let f = ident s in
      expect s (Abdl.Lexer.OP "=");
      f, literal s
    in
    let rec more acc =
      match peek s with
      | Abdl.Lexer.COMMA ->
        advance s;
        more (one s :: acc)
      | _ -> List.rev acc
    in
    let fields = more [ one s ] in
    expect s Abdl.Lexer.RPAREN;
    fields

  (* an optional single SSA for GN / GNP *)
  let optional_ssa s =
    match peek s with
    | Abdl.Lexer.IDENT _ -> Some (ssa s)
    | _ -> None

  let call_of_stream s =
    let verb = ident s in
    match upper verb with
    | "GU" ->
      let ssas = ssa_list s [] in
      if ssas = [] then fail "GU: at least one SSA required";
      Dli_ast.Gu ssas
    | "GN" -> Dli_ast.Gn (optional_ssa s)
    | "GNP" -> Dli_ast.Gnp (optional_ssa s)
    | "ISRT" ->
      (* the FINAL parenthesised group is the field list; everything before
         it is the SSA path ending in the (unqualified) target segment *)
      Option.iter raise s.error;
      let toks = Array.of_list s.toks in
      let last_top_level_lparen =
        let depth = ref 0 in
        let found = ref (-1) in
        Array.iteri
          (fun i tok ->
            match tok with
            | Abdl.Lexer.LPAREN ->
              if !depth = 0 then found := i;
              incr depth
            | Abdl.Lexer.RPAREN -> depth := max 0 (!depth - 1)
            | _ -> ())
          toks;
        !found
      in
      if last_top_level_lparen < 0 then fail "ISRT: missing field list";
      let prefix =
        Array.to_list (Array.sub toks 0 last_top_level_lparen)
      in
      let group =
        Array.to_list
          (Array.sub toks last_top_level_lparen
             (Array.length toks - last_top_level_lparen))
      in
      s.toks <- prefix @ [ Abdl.Lexer.EOF ];
      let path_and_target = ssa_list s [] in
      begin
        match peek s with
        | Abdl.Lexer.EOF -> ()
        | tok -> fail "ISRT: unexpected %s in SSA path" (Abdl.Lexer.token_to_string tok)
      end;
      s.toks <- group;
      begin
        match List.rev path_and_target with
        | [] -> fail "ISRT: missing target segment"
        | target :: rev_path ->
          if target.Dli_ast.ssa_qual <> None then
            fail "ISRT: the new segment cannot carry a qualification";
          let fields = field_assignments s in
          Dli_ast.Isrt
            {
              path = List.rev rev_path;
              segment = target.Dli_ast.ssa_segment;
              fields;
            }
      end
    | "REPL" -> Dli_ast.Repl (field_assignments s)
    | "DLET" -> Dli_ast.Dlet
    | other -> fail "unknown DL/I call %S" other

  let call src =
    wrap
      (fun s ->
        let parsed = call_of_stream s in
        drain s;
        parsed)
      src

  let program src =
    let parse_line line =
      let line = String.trim line in
      let line =
        match Daplex.Str_search.find line "--" with
        | Some i -> String.trim (String.sub line 0 i)
        | None -> line
      in
      if String.equal line "" then []
      else
        String.split_on_char ';' line
        |> List.filter_map (fun part ->
               let part = String.trim part in
               if String.equal part "" then None else Some (call part))
    in
    List.concat_map parse_line (String.split_on_char '\n' src)
end

(* --- hierarchical DDL ------------------------------------------------------ *)

module Old_hierarchical_ddl = struct
  module Types = Hierarchical.Types

  let field_def s =
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
      | Abdl.Lexer.INT n ->
        advance s;
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

  let schema src =
    let cleaned =
      String.split_on_char '\n' src
      |> List.map strip_comments
      |> String.concat "\n"
    in
    let s =
      let toks, error = lex cleaned in
      { toks; error }
    in
    let db_name = ref None in
    let segments = ref [] in
    let rec loop () =
      match peek s with
      | Abdl.Lexer.EOF -> ()
      | tok when kw_is tok "DATABASE" ->
        advance s;
        if !db_name <> None then fail "duplicate DATABASE clause";
        db_name := Some (ident s);
        loop ()
      | tok when kw_is tok "SEGMENT" ->
        advance s;
        let name = ident s in
        let parent =
          if kw_is (peek s) "PARENT" then begin
            advance s;
            Some (ident s)
          end
          else None
        in
        expect s Abdl.Lexer.LPAREN;
        let rec fields acc =
          let f = field_def s in
          match peek s with
          | Abdl.Lexer.COMMA ->
            advance s;
            fields (f :: acc)
          | _ -> List.rev (f :: acc)
        in
        let seg_fields = fields [] in
        expect s Abdl.Lexer.RPAREN;
        segments :=
          { Types.seg_name = name; seg_parent = parent; seg_fields } :: !segments;
        loop ()
      | tok -> fail "unexpected %s in hierarchical DDL" (Abdl.Lexer.token_to_string tok)
    in
    (try loop () with Lex_error msg -> fail "%s" msg);
    let name =
      match !db_name with
      | Some n -> n
      | None -> fail "missing DATABASE clause"
    in
    let result = { Types.name; segments = List.rev !segments } in
    match Types.validate result with
    | Ok () -> result
    | Error msg -> fail "invalid schema: %s" msg
end

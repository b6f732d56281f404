exception Parse_error = Abdl.Syntax.Parse_error

open Abdl.Syntax

(* ident [, ident]* — stops before a keyword terminator like IN/TO/FROM. *)
let ident_list c = comma_separated c ident

let using_clause c =
  expect_kw c "USING";
  let items = ident_list c in
  expect_kw c "IN";
  let record = ident c in
  items, record

let within c =
  expect_kw c "WITHIN";
  ident c

let position_of_name name =
  if kw_equal name "FIRST" then Some Ast.First
  else if kw_equal name "LAST" then Some Ast.Last
  else if kw_equal name "NEXT" then Some Ast.Next
  else if kw_equal name "PRIOR" then Some Ast.Prior
  else None

let parse_find c =
  match next c with
  | Abdl.Lexer.IDENT name ->
    if kw_equal name "ANY" then begin
      let record = ident c in
      let items, in_record = using_clause c in
      if not (String.equal record in_record) then
        fail "FIND ANY: USING ... IN %s must name %s" in_record record;
      Ast.Find_any { record; items }
    end
    else if kw_equal name "CURRENT" then
      let record = ident c in
      Ast.Find_current { record; set = within c }
    else if kw_equal name "DUPLICATE" then
      let set = within c in
      let items, record = using_clause c in
      Ast.Find_duplicate { set; record; items }
    else if kw_equal name "OWNER" then Ast.Find_owner { set = within c }
    else begin
      match position_of_name name with
      | Some pos ->
        let record = ident c in
        Ast.Find_position { pos; record; set = within c }
      | None ->
        (* FIND r WITHIN s CURRENT USING items IN r *)
        let record = name in
        let set = within c in
        expect_kw c "CURRENT";
        let items, in_record = using_clause c in
        if not (String.equal record in_record) then
          fail "FIND ... CURRENT: USING ... IN %s must name %s" in_record record;
        Ast.Find_within_current { record; set; items }
    end
  | tok -> fail "FIND: unexpected %s" (Abdl.Lexer.token_to_string tok)

(* [first], then [, item]* IN record or IN record: the items of a
   record named after IN; [None] at the end of the statement *)
let items_in c verb first =
  match peek c with
  | Abdl.Lexer.EOF | Abdl.Lexer.SEMI -> None
  | Abdl.Lexer.COMMA ->
    advance c;
    let items = first :: ident_list c in
    expect_kw c "IN";
    Some (items, ident c)
  | tok when kw_is tok "IN" ->
    advance c;
    Some ([ first ], ident c)
  | tok -> fail "%s: unexpected %s" verb (Abdl.Lexer.token_to_string tok)

let parse_get c =
  match peek c with
  | Abdl.Lexer.EOF | Abdl.Lexer.SEMI -> Ast.Get_current
  | _ ->
    let first = ident c in
    match items_in c "GET" first with
    | None -> Ast.Get_record first
    | Some (items, record) -> Ast.Get_items { items; record }

let parse_modify c =
  let first = ident c in
  match items_in c "MODIFY" first with
  | None -> Ast.Modify { record = first; items = [] }
  | Some (items, record) -> Ast.Modify { record; items }

let stmt_of_cursor c =
  let verb = ident c in
  if kw_equal verb "MOVE" then begin
    let value = literal c in
    expect_kw c "TO";
    let item = ident c in
    expect_kw c "IN";
    let record = ident c in
    Ast.Move { value; item; record }
  end
  else if kw_equal verb "FIND" then Ast.Find (parse_find c)
  else if kw_equal verb "GET" then Ast.Get (parse_get c)
  else if kw_equal verb "STORE" then Ast.Store (ident c)
  else if kw_equal verb "CONNECT" then begin
    let record = ident c in
    expect_kw c "TO";
    Ast.Connect { record; sets = ident_list c }
  end
  else if kw_equal verb "DISCONNECT" then begin
    let record = ident c in
    expect_kw c "FROM";
    Ast.Disconnect { record; sets = ident_list c }
  end
  else if kw_equal verb "MODIFY" then parse_modify c
  else if kw_equal verb "ERASE" then begin
    let first = ident c in
    if kw_equal first "ALL" then Ast.Erase { record = ident c; all = true }
    else Ast.Erase { record = first; all = false }
  end
  else fail "unknown CODASYL-DML statement %S" (String.uppercase_ascii verb)

let stmt = statement stmt_of_cursor

(* A line of a transaction script: the §VI.B.4 loop idiom's opening
   (both the bare PERFORM UNTIL EOF and the COBOL spelling PERFORM UNTIL
   EOF = 'YES' are accepted), its END PERFORM, or a statement. A line
   that does not lex is a statement, so that [stmt] reports the error. *)
type line =
  | Perform_open
  | Perform_close
  | Statement

let classify text =
  let c = Abdl.Lexer.cursor text in
  try
    if accept_kw c "PERFORM" then
      if accept_kw c "UNTIL" && accept_kw c "EOF" then begin
        (* the rest of the opening is not read, only lexed *)
        while peek c <> Abdl.Lexer.EOF do advance c done;
        Perform_open
      end
      else Statement
    else if accept_kw c "END" && accept_kw c "PERFORM" && peek c = Abdl.Lexer.EOF
    then Perform_close
    else Statement
  with Abdl.Lexer.Lex_error _ -> Statement

let program src =
  let lines =
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
  (* [block ~nested acc lines] reads statements up to the END PERFORM
     that closes a nested block, and returns the lines after it *)
  let rec block ~nested acc = function
    | [] ->
      if nested then fail "PERFORM UNTIL EOF without END PERFORM";
      List.rev acc, []
    | line :: rest ->
      match classify line with
      | Perform_close ->
        if not nested then fail "unmatched END PERFORM";
        List.rev acc, rest
      | Perform_open ->
        let body, rest = block ~nested:true [] rest in
        block ~nested (Ast.Perform_until_eof body :: acc) rest
      | Statement -> block ~nested (stmt line :: acc) rest
  in
  fst (block ~nested:false [] lines)

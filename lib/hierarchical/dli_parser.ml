exception Parse_error = Abdl.Syntax.Parse_error

open Abdl.Syntax

let qualification_of { Abdm.Predicate.attribute; op; value } =
  { Dli_ast.q_field = attribute; q_op = op; q_value = value }

let ssa c =
  let ssa_segment = ident c in
  match peek c with
  | Abdl.Lexer.LPAREN ->
    advance c;
    let qual = qualification_of (comparison c) in
    expect c Abdl.Lexer.RPAREN;
    { Dli_ast.ssa_segment; ssa_qual = Some qual }
  | _ -> { Dli_ast.ssa_segment; ssa_qual = None }

let rec ssa_list c acc =
  match peek c with
  | Abdl.Lexer.IDENT _ -> ssa_list c (ssa c :: acc)
  | _ -> List.rev acc

let field_assignment c =
  let f = ident c in
  expect c (Abdl.Lexer.OP "=");
  f, literal c

let field_assignments c =
  expect c Abdl.Lexer.LPAREN;
  let fields = comma_separated c field_assignment in
  expect c Abdl.Lexer.RPAREN;
  fields

(* an optional single SSA for GN / GNP *)
let optional_ssa c =
  match peek c with
  | Abdl.Lexer.IDENT _ -> Some (ssa c)
  | _ -> None

(* ISRT path target (fields): the parenthesised group that ends the call
   is the field list, and the segment before it the target; a group
   followed by another segment qualifies the SSA it follows. Each group
   is read once as comparisons, then classified by what follows its ). *)
let isrt c =
  let fields_of group =
    List.map
      (fun { Abdm.Predicate.attribute; op; value } ->
        if op <> Abdm.Predicate.Eq then
          fail "ISRT: expected =, got %s in the field list"
            (Abdm.Predicate.op_to_string op);
        attribute, value)
      group
  in
  let rec segments path =
    match next c with
    | Abdl.Lexer.IDENT ssa_segment ->
      begin
        match peek c with
        | Abdl.Lexer.LPAREN ->
          advance c;
          let group = comma_separated c comparison in
          expect c Abdl.Lexer.RPAREN;
          begin
            match peek c, group with
            | (Abdl.Lexer.EOF | Abdl.Lexer.SEMI), _ ->
              Dli_ast.Isrt
                { path = List.rev path; segment = ssa_segment; fields = fields_of group }
            | _, [ p ] ->
              segments ({ Dli_ast.ssa_segment; ssa_qual = Some (qualification_of p) } :: path)
            | _ -> fail "ISRT: a qualification holds one comparison"
          end
        | _ -> segments ({ Dli_ast.ssa_segment; ssa_qual = None } :: path)
      end
    | Abdl.Lexer.EOF | Abdl.Lexer.SEMI -> fail "ISRT: missing field list"
    | tok -> fail "ISRT: unexpected %s in SSA path" (Abdl.Lexer.token_to_string tok)
  in
  segments []

let call_of_cursor c =
  let verb = ident c in
  if kw_equal verb "GU" then begin
    let ssas = ssa_list c [] in
    if ssas = [] then fail "GU: at least one SSA required";
    Dli_ast.Gu ssas
  end
  else if kw_equal verb "GN" then Dli_ast.Gn (optional_ssa c)
  else if kw_equal verb "GNP" then Dli_ast.Gnp (optional_ssa c)
  else if kw_equal verb "ISRT" then isrt c
  else if kw_equal verb "REPL" then Dli_ast.Repl (field_assignments c)
  else if kw_equal verb "DLET" then Dli_ast.Dlet
  else fail "unknown DL/I call %S" (String.uppercase_ascii verb)

let call = statement call_of_cursor

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

(* Tests for the ABDL kernel data language: lexer, parser, executor,
   aggregates. *)

let value = Alcotest.testable Abdm.Value.pp Abdm.Value.equal

(* --- lexer -------------------------------------------------------------- *)

(* the whole text's tokens, read through a cursor *)
let tokens src =
  let c = Abdl.Lexer.cursor src in
  let rec loop acc =
    match Abdl.Lexer.peek c with
    | Abdl.Lexer.EOF -> List.rev (Abdl.Lexer.EOF :: acc)
    | tok ->
      Abdl.Lexer.advance c;
      loop (tok :: acc)
  in
  loop []

let test_lexer () =
  let open Abdl.Lexer in
  Alcotest.(check bool) "basic tokens" true
    (tokens "(a = 'x')" = [ LPAREN; IDENT "a"; OP "="; STRING "x"; RPAREN; EOF ]);
  Alcotest.(check bool) "operators" true
    (tokens "<> <= >= < > =" =
       [ OP "<>"; OP "<="; OP ">="; OP "<"; OP ">"; OP "="; EOF ]);
  Alcotest.(check bool) "negative int" true (tokens "-5" = [ INT (-5); EOF ]);
  Alcotest.(check bool) "float" true (tokens "2.75" = [ FLOAT 2.75; EOF ]);
  Alcotest.(check bool) "quote escape" true
    (tokens "'it''s'" = [ STRING "it's"; EOF ]);
  Alcotest.(check bool) "unterminated raises" true
    (match tokens "'oops" with
     | exception Lex_error _ -> true
     | _ -> false)

let test_lexer_exponents () =
  let open Abdl.Lexer in
  Alcotest.(check bool) "exponent with sign" true (tokens "1e+22" = [ FLOAT 1e22; EOF ]);
  Alcotest.(check bool) "negative mantissa and exponent" true
    (tokens "-1.5e-07" = [ FLOAT (-1.5e-07); EOF ]);
  Alcotest.(check bool) "capital E, no fraction" true (tokens "3E2" = [ FLOAT 300.; EOF ]);
  Alcotest.(check bool) "an e without digits is an identifier" true
    (tokens "1e" = [ INT 1; IDENT "e"; EOF ])

(* --- parser ------------------------------------------------------------- *)

let parse = Abdl.Parser.request

let test_parse_retrieve () =
  match parse "RETRIEVE ((FILE = course) AND (title = 'DB')) (title, credits) BY course" with
  | Abdl.Ast.Retrieve { query; targets; by } ->
    Alcotest.(check int) "one conjunction" 1 (List.length query);
    Alcotest.(check int) "two predicates" 2 (List.length (List.hd query));
    Alcotest.(check bool) "targets" true
      (targets = [ Abdl.Ast.T_attr "title"; Abdl.Ast.T_attr "credits" ]);
    Alcotest.(check (option string)) "by" (Some "course") by
  | _ -> Alcotest.fail "expected Retrieve"

let test_parse_retrieve_all_and_agg () =
  begin
    match parse "RETRIEVE ((FILE = x)) (ALL)" with
    | Abdl.Ast.Retrieve { targets; _ } ->
      Alcotest.(check bool) "ALL" true (targets = [ Abdl.Ast.T_all ])
    | _ -> Alcotest.fail "expected Retrieve"
  end;
  match parse "RETRIEVE ((FILE = x)) (AVG(salary), COUNT(name))" with
  | Abdl.Ast.Retrieve { targets; _ } ->
    Alcotest.(check bool) "aggregates" true
      (targets =
         [ Abdl.Ast.T_agg (Abdl.Ast.Avg, "salary");
           Abdl.Ast.T_agg (Abdl.Ast.Count, "name") ])
  | _ -> Alcotest.fail "expected Retrieve"

let test_parse_or_normalisation () =
  match parse "RETRIEVE ((FILE = a) AND ((x = 1) OR (x = 2))) (ALL)" with
  | Abdl.Ast.Retrieve { query; _ } ->
    (* AND over OR distributes into two conjunctions *)
    Alcotest.(check int) "two conjunctions" 2 (List.length query);
    List.iter
      (fun conj -> Alcotest.(check int) "two predicates each" 2 (List.length conj))
      query
  | _ -> Alcotest.fail "expected Retrieve"

let test_parse_insert () =
  match parse "INSERT (<FILE, course>, <title, 'DB'>, <credits, 3>)" with
  | Abdl.Ast.Insert record ->
    Alcotest.(check (option string)) "file" (Some "course") (Abdm.Record.file record);
    Alcotest.check (Alcotest.option value) "credits" (Some (Abdm.Value.Int 3))
      (Abdm.Record.value_of record "credits")
  | _ -> Alcotest.fail "expected Insert"

let test_parse_update () =
  begin
    match parse "UPDATE ((FILE = emp)) (salary = salary + 100)" with
    | Abdl.Ast.Update (_, [ Abdm.Modifier.Set_arith ("salary", Abdm.Modifier.Add, Abdm.Value.Int 100) ]) -> ()
    | _ -> Alcotest.fail "expected arithmetic Update"
  end;
  begin
    match parse "UPDATE ((FILE = emp)) (rank = NULL)" with
    | Abdl.Ast.Update (_, [ Abdm.Modifier.Set_const ("rank", Abdm.Value.Null) ]) -> ()
    | _ -> Alcotest.fail "expected null Update"
  end;
  match parse "UPDATE ((FILE = emp)) (dept = accounting)" with
  | Abdl.Ast.Update (_, [ Abdm.Modifier.Set_const ("dept", Abdm.Value.Str "accounting") ]) -> ()
  | _ -> Alcotest.fail "expected bare-identifier string Update"

let test_parse_delete_and_errors () =
  begin
    match parse "DELETE ((FILE = course) AND (credits < 3))" with
    | Abdl.Ast.Delete query -> Alcotest.(check int) "one conj" 1 (List.length query)
    | _ -> Alcotest.fail "expected Delete"
  end;
  let bad src =
    match parse src with
    | exception Abdl.Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown verb" true (bad "FROB ((x = 1))");
  Alcotest.(check bool) "trailing garbage" true (bad "DELETE ((x = 1)) zzz");
  Alcotest.(check bool) "bad operator" true (bad "DELETE ((x ~ 1))")

let test_parse_transaction () =
  let t =
    Abdl.Parser.transaction
      "INSERT (<FILE, f>, <x, 1>); INSERT (<FILE, f>, <x, 2>); DELETE ((FILE = f));"
  in
  Alcotest.(check int) "three requests" 3 (List.length t)

let test_roundtrip_to_string () =
  (* to_string output must reparse to the same AST *)
  let sources =
    [
      "RETRIEVE ((FILE = course) AND (title = 'DB')) (title, credits) BY course";
      "RETRIEVE ((FILE = x) OR (y > 2.5)) (ALL)";
      "INSERT (<FILE, f>, <x, 1>, <s, 'a b'>)";
      "UPDATE ((FILE = f) AND (x <> 3)) (x = x * 2)";
      "DELETE ((FILE = f) AND (s >= 'm'))";
      "RETRIEVE_COMMON ((FILE = emp)) (dept) AND ((FILE = dept)) (dname) (name, building)";
      "INSERT (<FILE, f>, <s, 'it''s quoted'>)";
    ]
  in
  List.iter
    (fun src ->
      let r1 = parse src in
      let r2 = parse (Abdl.Ast.to_string r1) in
      Alcotest.(check string) src (Abdl.Ast.to_string r1) (Abdl.Ast.to_string r2))
    sources

(* --- executor ------------------------------------------------------------ *)

let loaded_store () =
  let s = Abdm.Store.create () in
  let run src = ignore (Abdl.Exec.run s (Abdl.Parser.request src)) in
  run "INSERT (<FILE, emp>, <name, 'a'>, <salary, 10>, <dept, 'cs'>)";
  run "INSERT (<FILE, emp>, <name, 'b'>, <salary, 20>, <dept, 'cs'>)";
  run "INSERT (<FILE, emp>, <name, 'c'>, <salary, 30>, <dept, 'math'>)";
  run "INSERT (<FILE, emp>, <name, 'd'>, <salary, 40>, <dept, 'math'>)";
  s

let rows_of result =
  match result with
  | Abdl.Exec.Rows rows -> rows
  | _ -> Alcotest.fail "expected rows"

let test_exec_retrieve_projection () =
  let s = loaded_store () in
  let rows =
    rows_of (Abdl.Exec.run s (Abdl.Parser.request
      "RETRIEVE ((FILE = emp) AND (salary > 15)) (name)"))
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  let names =
    List.map
      (fun (r : Abdl.Exec.row) -> List.assoc "name" r.values)
      rows
  in
  Alcotest.(check bool) "names" true
    (names = [ Abdm.Value.Str "b"; Abdm.Value.Str "c"; Abdm.Value.Str "d" ])

let test_exec_retrieve_missing_attr_null () =
  let s = loaded_store () in
  let rows =
    rows_of (Abdl.Exec.run s (Abdl.Parser.request
      "RETRIEVE ((FILE = emp) AND (name = 'a')) (bonus)"))
  in
  Alcotest.check value "missing attr is null" Abdm.Value.Null
    (List.assoc "bonus" (List.hd rows).Abdl.Exec.values)

let test_exec_by_sorts () =
  let s = loaded_store () in
  let rows =
    rows_of (Abdl.Exec.run s (Abdl.Parser.request
      "RETRIEVE ((FILE = emp)) (salary) BY dept"))
  in
  let depts_in_dbkey_order = [ 10; 20; 30; 40 ] in
  ignore depts_in_dbkey_order;
  (* cs rows (salary 10, 20) must precede math rows (30, 40) *)
  let salaries =
    List.map (fun (r : Abdl.Exec.row) -> List.assoc "salary" r.values) rows
  in
  Alcotest.(check bool) "grouped by dept" true
    (salaries = List.map (fun i -> Abdm.Value.Int i) [ 10; 20; 30; 40 ])

let test_exec_aggregates () =
  let s = loaded_store () in
  let one_row src = List.hd (rows_of (Abdl.Exec.run s (Abdl.Parser.request src))) in
  let check_agg src attr expected =
    Alcotest.check value src expected (List.assoc attr (one_row src).Abdl.Exec.values)
  in
  check_agg "RETRIEVE ((FILE = emp)) (COUNT(name))" "COUNT(name)" (Abdm.Value.Int 4);
  check_agg "RETRIEVE ((FILE = emp)) (SUM(salary))" "SUM(salary)" (Abdm.Value.Int 100);
  check_agg "RETRIEVE ((FILE = emp)) (AVG(salary))" "AVG(salary)" (Abdm.Value.Float 25.);
  check_agg "RETRIEVE ((FILE = emp)) (MIN(salary))" "MIN(salary)" (Abdm.Value.Int 10);
  check_agg "RETRIEVE ((FILE = emp)) (MAX(name))" "MAX(name)" (Abdm.Value.Str "d")

let test_exec_group_by () =
  let s = loaded_store () in
  let rows =
    rows_of (Abdl.Exec.run s (Abdl.Parser.request
      "RETRIEVE ((FILE = emp)) (SUM(salary)) BY dept"))
  in
  Alcotest.(check int) "two groups" 2 (List.length rows);
  let by_dept =
    List.map
      (fun (r : Abdl.Exec.row) ->
        ( Abdm.Value.to_display (List.assoc "dept" r.values),
          List.assoc "SUM(salary)" r.values ))
      rows
  in
  Alcotest.(check bool) "sums per dept" true
    (by_dept = [ "cs", Abdm.Value.Int 30; "math", Abdm.Value.Int 70 ])

(* Groups and join buckets are keyed on the value, not on its %g text:
   1.0000001 and 1.0000002 print alike under %g but are distinct. *)
let test_exec_group_by_float () =
  let s = Abdm.Store.create () in
  let run src = Abdl.Exec.run s (Abdl.Parser.request src) in
  ignore (run "INSERT (<FILE, m>, <k, 1>, <x, 1.0000001>)");
  ignore (run "INSERT (<FILE, m>, <k, 2>, <x, 1.0000002>)");
  ignore (run "INSERT (<FILE, m>, <k, 3>, <x, 1.0000002>)");
  let rows = rows_of (run "RETRIEVE ((FILE = m)) (COUNT(k), SUM(k)) BY x") in
  Alcotest.(check (list (pair value value))) "one group per value"
    [ Abdm.Value.Int 1, Abdm.Value.Int 1; Abdm.Value.Int 2, Abdm.Value.Int 5 ]
    (List.map
       (fun (r : Abdl.Exec.row) ->
         List.assoc "COUNT(k)" r.values, List.assoc "SUM(k)" r.values)
       rows);
  ignore (run "INSERT (<FILE, n>, <y, 1.0000002>)");
  ignore (run "INSERT (<FILE, n>, <y, 3>)");
  ignore (run "INSERT (<FILE, m>, <k, 4>, <x, 3.0>)");
  let joined =
    rows_of (run "RETRIEVE_COMMON ((FILE = m)) (x) AND ((FILE = n)) (y) (k)")
  in
  Alcotest.(check (list value)) "joins on equal values only, Int 3 = Float 3.0"
    [ Abdm.Value.Int 2; Abdm.Value.Int 3; Abdm.Value.Int 4 ]
    (List.map (fun (r : Abdl.Exec.row) -> List.assoc "k" r.values) joined)

let test_exec_aggregate_empty () =
  let s = loaded_store () in
  let one_row src = List.hd (rows_of (Abdl.Exec.run s (Abdl.Parser.request src))) in
  let row = one_row "RETRIEVE ((FILE = emp) AND (salary > 1000)) (COUNT(name), AVG(salary))" in
  Alcotest.check value "count 0" (Abdm.Value.Int 0)
    (List.assoc "COUNT(name)" row.Abdl.Exec.values);
  Alcotest.check value "avg null" Abdm.Value.Null
    (List.assoc "AVG(salary)" row.Abdl.Exec.values)

let test_exec_update_delete () =
  let s = loaded_store () in
  let run src = Abdl.Exec.run s (Abdl.Parser.request src) in
  begin
    match run "UPDATE ((FILE = emp) AND (dept = 'cs')) (salary = salary + 5)" with
    | Abdl.Exec.Updated 2 -> ()
    | r -> Alcotest.failf "expected Updated 2, got %s" (Abdl.Exec.result_to_string r)
  end;
  begin
    match run "DELETE ((FILE = emp) AND (salary = 15))" with
    | Abdl.Exec.Deleted 1 -> ()
    | r -> Alcotest.failf "expected Deleted 1, got %s" (Abdl.Exec.result_to_string r)
  end;
  Alcotest.(check int) "three left" 3 (Abdm.Store.size s)

(* --- aggregate state properties ------------------------------------------ *)

let gen_values =
  QCheck2.Gen.(list_size (int_range 0 30) (int_range (-100) 100))

let prop_aggregate_merge =
  QCheck2.Test.make ~name:"Aggregate.merge = sequential adds" ~count:300
    QCheck2.Gen.(pair gen_values gen_values)
    (fun (xs, ys) ->
      let fold vs =
        List.fold_left
          (fun st v -> Abdl.Aggregate.add st (Abdm.Value.Int v))
          Abdl.Aggregate.empty vs
      in
      let merged = Abdl.Aggregate.merge (fold xs) (fold ys) in
      let whole = fold (xs @ ys) in
      List.for_all
        (fun agg ->
          Abdm.Value.equal
            (Abdl.Aggregate.finalize agg merged)
            (Abdl.Aggregate.finalize agg whole))
        [ Abdl.Ast.Count; Abdl.Ast.Sum; Abdl.Ast.Avg; Abdl.Ast.Min; Abdl.Ast.Max ])

let prop_parser_roundtrip =
  (* generate random requests, print, reparse, compare rendering *)
  let gen_pred =
    QCheck2.Gen.(
      map2
        (fun attr v ->
          Abdm.Predicate.make (Printf.sprintf "a%d" attr) Abdm.Predicate.Eq
            (Abdm.Value.Int v))
        (int_range 0 5) (int_range (-5) 5))
  in
  let gen_query =
    QCheck2.Gen.(
      map
        (fun conjs -> List.map (fun preds -> Abdm.Predicate.file_eq "f" :: preds) conjs)
        (list_size (int_range 1 3) (list_size (int_range 0 3) gen_pred)))
  in
  QCheck2.Test.make ~name:"parser round-trips printed requests" ~count:200
    gen_query
    (fun query ->
      let request = Abdl.Ast.retrieve query [ Abdl.Ast.T_all ] in
      let printed = Abdl.Ast.to_string request in
      let reparsed = Abdl.Parser.request printed in
      String.equal printed (Abdl.Ast.to_string reparsed))

(* print then parse gives the request back, floats bit-equal: finite
   floats of every magnitude, negatives and integral values included *)
let prop_print_parse_identity =
  let open QCheck2.Gen in
  let float =
    oneof
      [ oneofl [ 1e-7; 1e22; -0.5; 3.0; -2.0; 0.1; 1234567.5; 2.71828182; 1e300; 5e-324 ];
        map (fun i -> float_of_int i) (int_range (-1000) 1000);
        float_range (-1e6) 1e6;
        map2 (fun m e -> Float.ldexp m e) (float_range (-1.) 1.) (int_range (-1000) 1000) ]
  in
  let value =
    oneof
      [ map (fun i -> Abdm.Value.Int i) int;
        map (fun f -> Abdm.Value.Float f) float;
        map (fun s -> Abdm.Value.Str s) (string_size ~gen:printable (int_range 0 8));
        pure Abdm.Value.Null ]
  in
  let attr = map (Printf.sprintf "a%d") (int_range 0 9) in
  let pred =
    map3 Abdm.Predicate.make attr
      (oneofl Abdm.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ])
      value
  in
  let query = list_size (int_range 1 3) (list_size (int_range 1 3) pred) in
  let modifier =
    oneof
      [ map2 (fun a v -> Abdm.Modifier.Set_const (a, v)) attr value;
        map3
          (fun a op v -> Abdm.Modifier.Set_arith (a, op, v))
          attr
          (oneofl Abdm.Modifier.[ Add; Sub; Mul; Div ])
          value ]
  in
  let record =
    map
      (fun values ->
        Abdm.Record.make
          (Abdm.Keyword.file "f"
          :: List.mapi (fun i v -> Abdm.Keyword.make (Printf.sprintf "a%d" i) v) values))
      (list_size (int_range 0 6) value)
  in
  let request =
    oneof
      [ map (fun r -> Abdl.Ast.Insert r) record;
        map (fun q -> Abdl.Ast.Delete q) query;
        map2 (fun q ms -> Abdl.Ast.Update (q, ms)) query (list_size (int_range 1 4) modifier) ]
  in
  QCheck2.Test.make ~name:"parse (print r) = r, floats bit-equal" ~count:500
    ~print:Abdl.Ast.to_string request
    (fun r ->
      let back = Abdl.Parser.request (Abdl.Ast.to_string r) in
      (* structural equality tells Int from Float; the printed text also
         compares the floats' bits *)
      back = r && String.equal (Abdl.Ast.to_string back) (Abdl.Ast.to_string r)
      &&
      let values = function
        | Abdl.Ast.Insert r -> Abdm.Record.fold (fun acc _ v -> v :: acc) [] r
        | _ -> []
      in
      List.for_all2
        (fun a b ->
          match a, b with
          | Abdm.Value.Float x, Abdm.Value.Float y ->
            Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
          | _ -> true)
        (values r) (values back))

(* The lexer cursor, read to the end, against the list lexer it
   replaced (test/parse_oracle.ml): the same tokens, or the same error,
   on texts of quotes, doubled quotes, signs, '.', 'e', operators,
   digits (runs of up to 22, past the int range), identifiers, stray
   characters and whitespace. *)
let outcome f src =
  match f src with
  | toks -> Ok toks
  | exception Abdl.Lexer.Lex_error msg -> Error ("lex: " ^ msg)
  | exception Failure msg -> Error ("failure: " ^ msg)

let gen_lex_text =
  let open QCheck2.Gen in
  let piece =
    frequency
      [
        ( 8,
          oneofl
            [ "'"; "''"; "'a b'"; "'it''s'"; "-"; "+"; "."; "e"; "E"; "e-"; "E+";
              "<"; ">"; "="; "!"; "!="; "<>"; "*"; "/"; "("; ")"; ","; ";"; " ";
              "\n"; "\t"; "x"; "_y.z"; "NULL"; "@"; "#"; "0"; "7" ] );
        (2, map (fun n -> String.make n '9') (int_range 1 22));
        (1, map (fun n -> "-" ^ String.make n '8') (int_range 17 20));
      ]
  in
  map (String.concat "") (list_size (int_range 0 24) piece)

let prop_lexer_matches_list_lexer =
  QCheck2.Test.make ~name:"lexer cursor = list lexer" ~count:2000 ~print:Fun.id
    gen_lex_text (fun src ->
      outcome tokens src = outcome Parse_oracle.tokens src)

let test_lexer_cursor () =
  let open Abdl.Lexer in
  let c = cursor "a 'b" in
  Alcotest.(check bool) "first token" true (peek c = IDENT "a");
  Alcotest.(check bool) "peek again, same token" true (peek c = IDENT "a");
  advance c;
  Alcotest.check_raises "the bad token raises when read"
    (Lex_error "unterminated string literal") (fun () -> ignore (peek c));
  let c = cursor "x" in
  advance c;
  advance c;
  Alcotest.(check bool) "past the end: EOF" true (peek c = EOF);
  Alcotest.(check bool) "19 digits go through int_of_string" true
    (tokens "-4611686018427387904" = [ INT min_int; EOF ]);
  Alcotest.check_raises "out of range is a lexical error"
    (Lex_error "integer literal out of range at 2") (fun () ->
      ignore (tokens "x 4611686018427387904"))

let suite =
  [
    "lexer", `Quick, test_lexer;
    "lexer exponents", `Quick, test_lexer_exponents;
    "lexer cursor", `Quick, test_lexer_cursor;
    QCheck_alcotest.to_alcotest prop_lexer_matches_list_lexer;
    "parse retrieve", `Quick, test_parse_retrieve;
    "parse ALL and aggregates", `Quick, test_parse_retrieve_all_and_agg;
    "parse OR normalisation", `Quick, test_parse_or_normalisation;
    "parse insert", `Quick, test_parse_insert;
    "parse update", `Quick, test_parse_update;
    "parse delete and errors", `Quick, test_parse_delete_and_errors;
    "parse transaction", `Quick, test_parse_transaction;
    "round-trip rendering", `Quick, test_roundtrip_to_string;
    "exec retrieve projection", `Quick, test_exec_retrieve_projection;
    "exec missing attr null", `Quick, test_exec_retrieve_missing_attr_null;
    "exec BY sorts", `Quick, test_exec_by_sorts;
    "exec aggregates", `Quick, test_exec_aggregates;
    "exec group by", `Quick, test_exec_group_by;
    "exec group and join by value", `Quick, test_exec_group_by_float;
    "exec aggregate empty", `Quick, test_exec_aggregate_empty;
    "exec update/delete", `Quick, test_exec_update_delete;
    QCheck_alcotest.to_alcotest prop_aggregate_merge;
    QCheck_alcotest.to_alcotest prop_parser_roundtrip;
    QCheck_alcotest.to_alcotest prop_print_parse_identity;
  ]

(* --- RETRIEVE_COMMON ------------------------------------------------------ *)

let join_store () =
  let s = Abdm.Store.create () in
  let run src = ignore (Abdl.Exec.run s (Abdl.Parser.request src)) in
  run "INSERT (<FILE, emp>, <name, 'a'>, <dept, 'cs'>)";
  run "INSERT (<FILE, emp>, <name, 'b'>, <dept, 'cs'>)";
  run "INSERT (<FILE, emp>, <name, 'c'>, <dept, 'math'>)";
  run "INSERT (<FILE, dept>, <dname, 'cs'>, <building, 'Spanagel'>)";
  run "INSERT (<FILE, dept>, <dname, 'math'>, <building, 'Root'>)";
  run "INSERT (<FILE, dept>, <dname, 'physics'>, <building, 'Bullard'>)";
  s

let test_retrieve_common_parse () =
  match
    Abdl.Parser.request
      "RETRIEVE_COMMON ((FILE = emp)) (dept) AND ((FILE = dept)) (dname) (name, building)"
  with
  | Abdl.Ast.Retrieve_common rc ->
    Alcotest.(check string) "left attr" "dept" rc.rc_left_attr;
    Alcotest.(check string) "right attr" "dname" rc.rc_right_attr;
    Alcotest.(check int) "targets" 2 (List.length rc.rc_targets)
  | _ -> Alcotest.fail "expected Retrieve_common"

let test_retrieve_common_join () =
  let s = join_store () in
  let rows =
    rows_of
      (Abdl.Exec.run s
         (Abdl.Parser.request
            "RETRIEVE_COMMON ((FILE = emp)) (dept) AND ((FILE = dept)) (dname) (name, building)"))
  in
  Alcotest.(check int) "three joined rows" 3 (List.length rows);
  let pairs =
    List.map
      (fun (r : Abdl.Exec.row) ->
        ( Abdm.Value.to_display (List.assoc "name" r.values),
          Abdm.Value.to_display (List.assoc "building" r.values) ))
      rows
  in
  Alcotest.(check bool) "a in Spanagel" true (List.mem ("a", "Spanagel") pairs);
  Alcotest.(check bool) "c in Root" true (List.mem ("c", "Root") pairs);
  (* physics has no employees: no row *)
  Alcotest.(check bool) "no Bullard" true
    (not (List.exists (fun (_, b) -> String.equal b "Bullard") pairs))

let test_retrieve_common_collision_rename () =
  let s = Abdm.Store.create () in
  let run src = ignore (Abdl.Exec.run s (Abdl.Parser.request src)) in
  run "INSERT (<FILE, a>, <name, 'x'>, <ref, 1>)";
  run "INSERT (<FILE, b>, <name, 'y'>, <id, 1>)";
  let rows =
    rows_of
      (Abdl.Exec.run s
         (Abdl.Parser.request
            "RETRIEVE_COMMON ((FILE = a)) (ref) AND ((FILE = b)) (id) (ALL)"))
  in
  let row = List.hd rows in
  Alcotest.(check bool) "left name kept" true
    (List.assoc_opt "name" row.Abdl.Exec.values = Some (Abdm.Value.Str "x"));
  Alcotest.(check bool) "right name renamed b.name" true
    (List.assoc_opt "b.name" row.Abdl.Exec.values = Some (Abdm.Value.Str "y"))

let test_retrieve_common_nulls_never_join () =
  let s = Abdm.Store.create () in
  let run src = ignore (Abdl.Exec.run s (Abdl.Parser.request src)) in
  run "INSERT (<FILE, a>, <ref, NULL>)";
  run "INSERT (<FILE, b>, <id, NULL>)";
  let rows =
    rows_of
      (Abdl.Exec.run s
         (Abdl.Parser.request
            "RETRIEVE_COMMON ((FILE = a)) (ref) AND ((FILE = b)) (id) (ALL)"))
  in
  Alcotest.(check int) "null keys never match" 0 (List.length rows)

let test_retrieve_common_on_mbds () =
  let c = Mbds.Controller.create 3 in
  let run src = ignore (Mbds.Controller.run c (Abdl.Parser.request src)) in
  run "INSERT (<FILE, emp>, <name, 'a'>, <dept, 'cs'>)";
  run "INSERT (<FILE, dept>, <dname, 'cs'>, <building, 'Spanagel'>)";
  match
    Mbds.Controller.run c
      (Abdl.Parser.request
         "RETRIEVE_COMMON ((FILE = emp)) (dept) AND ((FILE = dept)) (dname) (name, building)")
  with
  | Abdl.Exec.Rows [ row ] ->
    Alcotest.(check bool) "joined across backends" true
      (List.assoc_opt "building" row.Abdl.Exec.values
       = Some (Abdm.Value.Str "Spanagel"))
  | r -> Alcotest.failf "unexpected %s" (Abdl.Exec.result_to_string r)

(* SUM over integers is exact: 2^53 + 1 has no float, MAX already
   answered it; on one store and merged across two backends. *)
let test_sum_exact_int () =
  let big = 9007199254740993 in
  let check what run =
    ignore (run (Printf.sprintf "INSERT (<FILE, t>, <v, %d>)" big));
    match run "RETRIEVE ((FILE = t)) (SUM(v), MAX(v))" with
    | Abdl.Exec.Rows [ row ] ->
      Alcotest.check value (what ^ ": SUM") (Abdm.Value.Int big)
        (List.assoc "SUM(v)" row.Abdl.Exec.values);
      Alcotest.check value (what ^ ": MAX") (Abdm.Value.Int big)
        (List.assoc "MAX(v)" row.Abdl.Exec.values)
    | r -> Alcotest.failf "%s: unexpected %s" what (Abdl.Exec.result_to_string r)
  in
  let s = Abdm.Store.create () in
  check "one store" (fun src -> Abdl.Exec.run s (Abdl.Parser.request src));
  let c = Mbds.Controller.create 2 in
  check "2 backends" (fun src -> Mbds.Controller.run c (Abdl.Parser.request src))

(* The exact total of a short list of ints, as hi * 2^31 + lo with
   0 <= lo < 2^31: no step can overflow. *)
let exact_total vs =
  let hi = List.fold_left (fun acc v -> acc + (v asr 31)) 0 vs in
  let lo = List.fold_left (fun acc v -> acc + (v land 0x7fff_ffff)) 0 vs in
  hi + (lo asr 31), lo land 0x7fff_ffff

let prop_sum_exact =
  let open QCheck2.Gen in
  let big = oneof [ oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; 1; -1 ]; int ] in
  QCheck2.Test.make ~name:"SUM of ints: exact in range, Float beyond, any split"
    ~count:500
    (pair (list_size (int_range 1 12) big) (int_range 0 12))
    (fun (vs, cut) ->
      let fold =
        List.fold_left (fun st v -> Abdl.Aggregate.add st (Abdm.Value.Int v))
          Abdl.Aggregate.empty
      in
      let left = List.filteri (fun i _ -> i < cut) vs
      and right = List.filteri (fun i _ -> i >= cut) vs in
      let hi, lo = exact_total vs in
      let expected =
        if hi >= -(1 lsl 31) && hi < 1 lsl 31 then Abdm.Value.Int ((hi lsl 31) + lo)
        else Abdm.Value.Float (List.fold_left (fun acc v -> acc +. float_of_int v) 0. vs)
      in
      List.for_all
        (fun st ->
          match Abdl.Aggregate.finalize Abdl.Ast.Sum st, expected with
          | Abdm.Value.Int got, Abdm.Value.Int want -> got = want
          | Abdm.Value.Float _, Abdm.Value.Float _ -> true
          | _ -> false)
        [ fold vs; Abdl.Aggregate.merge (fold left) (fold right) ])

let suite =
  suite
  @ [
      "retrieve_common parse", `Quick, test_retrieve_common_parse;
      "retrieve_common join", `Quick, test_retrieve_common_join;
      "retrieve_common collision rename", `Quick, test_retrieve_common_collision_rename;
      "retrieve_common null keys", `Quick, test_retrieve_common_nulls_never_join;
      "retrieve_common on MBDS", `Quick, test_retrieve_common_on_mbds;
      "SUM of integers is exact", `Quick, test_sum_exact_int;
      QCheck_alcotest.to_alcotest prop_sum_exact;
    ]

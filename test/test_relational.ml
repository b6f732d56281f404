(* Tests for the relational/SQL language interface. *)

let value = Alcotest.testable Abdm.Value.pp Abdm.Value.equal

let fresh ?(kernel = Mapping.Kernel.single ()) () =
  let t = Relational.Engine.create kernel "payroll" in
  let setup =
    [
      "CREATE TABLE employee (name CHAR(25) UNIQUE, salary INT, dept CHAR(10))";
      "INSERT INTO employee VALUES ('Hsiao', 72000, 'cs')";
      "INSERT INTO employee VALUES ('Demurjian', 54000, 'cs')";
      "INSERT INTO employee VALUES ('Lum', 68000, 'math')";
      "INSERT INTO employee VALUES ('Marshall', 61000, 'math')";
    ]
  in
  List.iter
    (fun src ->
      match Relational.Engine.run t src with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" src msg)
    setup;
  t

let table t src =
  match Relational.Engine.run t src with
  | Ok (Relational.Engine.Table { header; rows }) -> header, rows
  | Ok o -> Alcotest.failf "%s: expected table, got %s" src (Relational.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

let expect_error t src =
  match Relational.Engine.run t src with
  | Error msg -> msg
  | Ok o -> Alcotest.failf "%s: expected error, got %s" src (Relational.Engine.outcome_to_string o)

let test_parser_render () =
  let p src = Relational.Sql_ast.to_string (Relational.Sql_parser.stmt src) in
  Alcotest.(check string) "select"
    "SELECT name, salary FROM employee WHERE (salary > 100) AND (dept = 'cs')"
    (p "SELECT name, salary FROM employee WHERE salary > 100 AND dept = 'cs'");
  Alcotest.(check string) "group"
    "SELECT AVG(salary) FROM employee GROUP BY dept"
    (p "select avg(salary) from employee group by dept");
  Alcotest.(check string) "insert with columns"
    "INSERT INTO t (a, b) VALUES (1, 'x')"
    (p "INSERT INTO t (a, b) VALUES (1, 'x')");
  Alcotest.(check string) "update"
    "UPDATE t SET a = 2 WHERE (b = 'x')"
    (p "UPDATE t SET a = 2 WHERE b = 'x'")

let test_select_star () =
  let t = fresh () in
  let header, rows = table t "SELECT * FROM employee" in
  Alcotest.(check (list string)) "header" [ "name"; "salary"; "dept" ] header;
  Alcotest.(check int) "4 rows" 4 (List.length rows)

let test_select_where_and_or () =
  let t = fresh () in
  let _, rows =
    table t "SELECT name FROM employee WHERE dept = 'cs' OR salary > 65000"
  in
  Alcotest.(check int) "3 rows" 3 (List.length rows)

let test_select_order_by () =
  let t = fresh () in
  let _, rows = table t "SELECT name FROM employee ORDER BY salary" in
  let names = List.map (fun row -> Abdm.Value.to_display (List.hd row)) rows in
  Alcotest.(check (list string)) "ascending salary order"
    [ "Demurjian"; "Marshall"; "Lum"; "Hsiao" ] names

let test_select_group_by () =
  let t = fresh () in
  let header, rows = table t "SELECT AVG(salary), COUNT(name) FROM employee GROUP BY dept" in
  Alcotest.(check (list string)) "header includes group col"
    [ "dept"; "AVG(salary)"; "COUNT(name)" ] header;
  Alcotest.(check int) "two groups" 2 (List.length rows);
  match rows with
  | [ cs; math ] ->
    Alcotest.check value "cs avg" (Abdm.Value.Float 63000.) (List.nth cs 1);
    Alcotest.check value "math count" (Abdm.Value.Int 2) (List.nth math 2)
  | _ -> Alcotest.fail "expected cs and math groups"

let test_count_star () =
  let t = fresh () in
  let header, rows = table t "SELECT COUNT(*) FROM employee" in
  Alcotest.(check (list string)) "header" [ "COUNT(*)" ] header;
  Alcotest.check value "4" (Abdm.Value.Int 4) (List.hd (List.hd rows))

let test_update_delete () =
  let t = fresh () in
  begin
    match Relational.Engine.run t "UPDATE employee SET salary = 70000 WHERE dept = 'cs'" with
    | Ok (Relational.Engine.Updated 2) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Relational.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  begin
    match Relational.Engine.run t "DELETE FROM employee WHERE salary < 65000" with
    | Ok (Relational.Engine.Deleted 1) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Relational.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  let _, rows = table t "SELECT COUNT(*) FROM employee" in
  Alcotest.check value "3 remain" (Abdm.Value.Int 3) (List.hd (List.hd rows))

let test_unique_violation () =
  let t = fresh () in
  let msg = expect_error t "INSERT INTO employee VALUES ('Hsiao', 1, 'cs')" in
  Alcotest.(check bool) "unique caught" true
    (Daplex.Str_search.find msg "UNIQUE" <> None)

let test_type_checking () =
  let t = fresh () in
  let msg = expect_error t "INSERT INTO employee VALUES ('X', 'lots', 'cs')" in
  Alcotest.(check bool) "type mismatch" true
    (Daplex.Str_search.find msg "expects" <> None);
  let msg = expect_error t "UPDATE employee SET salary = 'big'" in
  Alcotest.(check bool) "update type mismatch" true
    (Daplex.Str_search.find msg "expects" <> None)

let test_schema_errors () =
  let t = fresh () in
  Alcotest.(check bool) "unknown relation" true
    (Result.is_error (Relational.Engine.run t "SELECT * FROM ghost"));
  Alcotest.(check bool) "unknown column" true
    (Result.is_error (Relational.Engine.run t "SELECT age FROM employee"));
  Alcotest.(check bool) "duplicate table" true
    (Result.is_error (Relational.Engine.run t "CREATE TABLE employee (x INT)"));
  Alcotest.(check bool) "arity mismatch" true
    (Result.is_error (Relational.Engine.run t "INSERT INTO employee VALUES (1)"));
  Alcotest.(check bool) "group by without aggregate" true
    (Result.is_error (Relational.Engine.run t "SELECT name FROM employee GROUP BY dept"))

let test_translation_log () =
  let kernel = Mapping.Kernel.single () in
  let t = fresh ~kernel () in
  let _, log =
    Mapping.Kernel.collect kernel (fun () ->
        table t "SELECT name FROM employee WHERE salary > 60000")
  in
  match log with
  | [ request ] ->
    Alcotest.(check string) "one RETRIEVE"
      "RETRIEVE ((FILE = 'employee') AND (salary > 60000)) (name)"
      (Abdl.Ast.to_string request)
  | log -> Alcotest.failf "expected 1 request, got %d" (List.length log)

let test_on_mbds () =
  let t = Relational.Engine.create (Mapping.Kernel.multi 4) "payroll" in
  List.iter
    (fun src -> ignore (Relational.Engine.run t src))
    [
      "CREATE TABLE pt (x INT, y INT)";
      "INSERT INTO pt VALUES (1, 10)";
      "INSERT INTO pt VALUES (2, 20)";
      "INSERT INTO pt VALUES (3, 30)";
    ];
  match Relational.Engine.run t "SELECT SUM(y) FROM pt WHERE x > 1" with
  | Ok (Relational.Engine.Table { rows = [ [ v ] ]; _ }) ->
    Alcotest.check value "sum 50" (Abdm.Value.Int 50) v
  | Ok o -> Alcotest.failf "unexpected %s" (Relational.Engine.outcome_to_string o)
  | Error msg -> Alcotest.fail msg

let suite =
  [
    "parser render", `Quick, test_parser_render;
    "select star", `Quick, test_select_star;
    "select where AND/OR", `Quick, test_select_where_and_or;
    "select order by", `Quick, test_select_order_by;
    "select group by", `Quick, test_select_group_by;
    "count star", `Quick, test_count_star;
    "update/delete", `Quick, test_update_delete;
    "unique violation", `Quick, test_unique_violation;
    "type checking", `Quick, test_type_checking;
    "schema errors", `Quick, test_schema_errors;
    "translation log", `Quick, test_translation_log;
    "on MBDS", `Quick, test_on_mbds;
  ]

(* --- joins ---------------------------------------------------------------- *)

let join_db ?(kernel = Mapping.Kernel.single ()) () =
  let t = Relational.Engine.create kernel "campus" in
  List.iter
    (fun src ->
      match Relational.Engine.run t src with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" src msg)
    [
      "CREATE TABLE emp (name CHAR(25), salary INT, dept CHAR(10))";
      "CREATE TABLE dept (dname CHAR(10), building CHAR(20))";
      "INSERT INTO emp VALUES ('Hsiao', 72000, 'cs')";
      "INSERT INTO emp VALUES ('Lum', 68000, 'math')";
      "INSERT INTO emp VALUES ('Demurjian', 54000, 'cs')";
      "INSERT INTO dept VALUES ('cs', 'Spanagel')";
      "INSERT INTO dept VALUES ('math', 'Root')";
      "INSERT INTO dept VALUES ('physics', 'Bullard')";
    ];
  t

let test_join_basic () =
  let t = join_db () in
  let header, rows =
    table t "SELECT name, building FROM emp, dept WHERE dept = dname"
  in
  Alcotest.(check (list string)) "header" [ "name"; "building" ] header;
  Alcotest.(check int) "three rows" 3 (List.length rows)

let test_join_with_restriction () =
  let t = join_db () in
  let _, rows =
    table t
      "SELECT name, building FROM emp, dept WHERE dept = dname AND salary > 60000"
  in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let names = List.map (fun r -> Abdm.Value.to_display (List.hd r)) rows in
  Alcotest.(check bool) "Hsiao and Lum" true
    (List.mem "Hsiao" names && List.mem "Lum" names)

let test_join_qualified_columns () =
  let t = join_db () in
  let header, rows =
    table t "SELECT emp.name, dept.building FROM emp, dept WHERE emp.dept = dept.dname AND dept.dname = 'cs'"
  in
  Alcotest.(check (list string)) "qualified header" [ "emp.name"; "dept.building" ] header;
  Alcotest.(check int) "cs employees" 2 (List.length rows)

let test_join_star () =
  let t = join_db () in
  let header, _ =
    table t "SELECT * FROM emp, dept WHERE dept = dname"
  in
  Alcotest.(check (list string)) "star header"
    [ "emp.name"; "emp.salary"; "emp.dept"; "dept.dname"; "dept.building" ]
    header

let test_join_errors () =
  let t = join_db () in
  let bad src = Result.is_error (Relational.Engine.run t src) in
  Alcotest.(check bool) "no join condition" true
    (bad "SELECT name FROM emp, dept");
  Alcotest.(check bool) "aggregate in join" true
    (bad "SELECT COUNT(name) FROM emp, dept WHERE dept = dname");
  Alcotest.(check bool) "three tables" true
    (bad "SELECT name FROM emp, dept, emp WHERE dept = dname");
  Alcotest.(check bool) "or in join" true
    (bad "SELECT name FROM emp, dept WHERE dept = dname OR salary > 1")

let test_join_generates_retrieve_common () =
  let kernel = Mapping.Kernel.single () in
  let t = join_db ~kernel () in
  let _, log =
    Mapping.Kernel.collect kernel (fun () ->
        table t "SELECT name FROM emp, dept WHERE dept = dname")
  in
  match log with
  | [ Abdl.Ast.Retrieve_common _ ] -> ()
  | log -> Alcotest.failf "expected one RETRIEVE_COMMON, got %d requests" (List.length log)

let suite =
  suite
  @ [
      "join basic", `Quick, test_join_basic;
      "join with restriction", `Quick, test_join_with_restriction;
      "join qualified columns", `Quick, test_join_qualified_columns;
      "join star", `Quick, test_join_star;
      "join errors", `Quick, test_join_errors;
      "join generates RETRIEVE_COMMON", `Quick, test_join_generates_retrieve_common;
    ]

(* --- UNIQUE, enforced by the kernel ------------------------------------- *)

let kernels =
  [
    "single store", (fun () -> Mapping.Kernel.single ());
    "2 backends", (fun () -> Mapping.Kernel.multi 2);
    "3 backends", (fun () -> Mapping.Kernel.multi 3);
  ]

let run_all t srcs =
  List.iter
    (fun src ->
      match Relational.Engine.run t src with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" src msg)
    srcs

let expect_outcome t src want =
  match Relational.Engine.run t src with
  | Ok o ->
    Alcotest.(check string) src want (Relational.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

(* An UPDATE may not give a UNIQUE value to two rows. *)
let test_update_unique () =
  List.iter
    (fun (name, kernel) ->
      let t = Relational.Engine.create (kernel ()) "u" in
      run_all t
        [
          "CREATE TABLE e (name CHAR(10) UNIQUE, n INT)";
          "INSERT INTO e VALUES ('a', 1)";
          "INSERT INTO e VALUES ('b', 2)";
        ];
      List.iter
        (fun src ->
          let msg = expect_error t src in
          Alcotest.(check bool) (name ^ ": " ^ src) true
            (Daplex.Str_search.find msg "UNIQUE" <> None))
        [ "UPDATE e SET name = 'a' WHERE n = 2"; "UPDATE e SET name = 'c'" ];
      expect_outcome t "SELECT name, n FROM e ORDER BY n" "name | n\na | 1\nb | 2";
      (* a row may keep its own value or take a free one; NULLs are exempt *)
      expect_outcome t "UPDATE e SET name = 'b' WHERE n = 2" "1 row(s) updated";
      expect_outcome t "UPDATE e SET name = 'c' WHERE n = 2" "1 row(s) updated";
      expect_outcome t "UPDATE e SET name = NULL" "2 row(s) updated";
      expect_outcome t "INSERT INTO e VALUES ('a', 3)" "1 row(s) inserted")
    kernels

(* An UPDATE that sets a UNIQUE column retrieves the rows it targets and
   the rows holding the new value before it updates: its translation
   lists those RETRIEVEs. An UPDATE of other columns is one request. *)
let test_update_unique_translation () =
  let kernel = Mapping.Kernel.single () in
  let t = fresh ~kernel () in
  let translation src =
    let (), log =
      Mapping.Kernel.collect kernel (fun () ->
          expect_outcome t src "1 row(s) updated")
    in
    List.map Abdl.Ast.to_string log
  in
  Alcotest.(check (list string)) "UNIQUE column: probes, then the UPDATE"
    [ "RETRIEVE ((FILE = 'employee') AND (salary = 54000)) (ALL)";
      "RETRIEVE ((FILE = 'employee') AND (name = 'Dem')) (ALL)";
      "UPDATE ((FILE = 'employee') AND (salary = 54000)) (name = 'Dem')" ]
    (translation "UPDATE employee SET name = 'Dem' WHERE salary = 54000");
  Alcotest.(check (list string)) "other column: the UPDATE alone"
    [ "UPDATE ((FILE = 'employee') AND (name = 'Dem')) (salary = 55000)" ]
    (translation "UPDATE employee SET salary = 55000 WHERE name = 'Dem'")

(* A UNIQUE INSERT on two backends claims no broadcast share, accepted or
   rejected, and a rejected one reaches no WAL subscriber. *)
let test_insert_no_broadcast () =
  let kernel = Mapping.Kernel.multi 2 in
  let t = Relational.Engine.create kernel "u" in
  run_all t
    [ "CREATE TABLE e (name CHAR(10) UNIQUE, n INT)"; "INSERT INTO e VALUES ('a', 1)" ];
  let events = ref 0 in
  Mapping.Kernel.set_wal_hook kernel (Some (fun _ -> incr events));
  let shares () =
    Obs.Metrics.counter_value (Obs.Metrics.counter "mbds.shares_inline")
    + Obs.Metrics.counter_value (Obs.Metrics.counter "mbds.shares_remote")
  in
  let shares0 = shares () in
  expect_outcome t "INSERT INTO e VALUES ('b', 2)" "1 row(s) inserted";
  Alcotest.(check int) "accepted: one event" 1 !events;
  let _, log =
    Mapping.Kernel.collect kernel (fun () ->
        expect_error t "INSERT INTO e VALUES ('a', 3)")
  in
  Alcotest.(check int) "rejected: no event" 1 !events;
  Alcotest.(check int) "no broadcast share" shares0 (shares ());
  Alcotest.(check (list string)) "the translation is one INSERT"
    [ "INSERT (<FILE, 'e'>, <name, 'a'>, <n, 3>)" ]
    (List.map Abdl.Ast.to_string log)

(* Random scripts over two tables whose columns are UNIQUE at random,
   with few distinct values and NULLs, so keys collide often. *)
let oracle_columns =
  Relational.Types.
    [
      "u", [ "k", C_int; "s", C_string 4; "n", C_int ];
      "v", [ "s", C_string 4; "x", C_float ];
    ]

let gen_value (ty : Relational.Types.col_type) =
  let open QCheck2.Gen in
  let some =
    match ty with
    | Relational.Types.C_int -> map (fun i -> Abdm.Value.Int i) (int_range 0 3)
    | Relational.Types.C_float ->
      oneof
        [
          map (fun i -> Abdm.Value.Float (float_of_int i)) (int_range 0 2);
          map (fun i -> Abdm.Value.Int i) (int_range 0 2);
        ]
    | Relational.Types.C_string _ ->
      map (fun s -> Abdm.Value.Str s) (oneofl [ "p"; "q"; "r" ])
  in
  frequency [ 4, some; 1, pure Abdm.Value.Null ]

let gen_create (table, cols) =
  let open QCheck2.Gen in
  let* uniques = flatten_l (List.map (fun _ -> bool) cols) in
  pure
    (Relational.Sql_ast.Create_table
       {
         rel_name = table;
         rel_columns =
           List.map2
             (fun (col_name, col_type) col_unique ->
               { Relational.Types.col_name; col_type; col_unique })
             cols uniques;
       })

let gen_stmt =
  let open QCheck2.Gen in
  let* ((table, cols) as relation) = oneofl oracle_columns in
  let gen_set = oneofl cols >>= fun (c, ty) -> map (fun v -> c, v) (gen_value ty) in
  let gen_where =
    frequency
      [
        1, pure Abdm.Query.always;
        ( 3,
          let* c, ty = oneofl cols in
          let* op = oneofl Abdm.Predicate.[ Eq; Neq; Lt; Gt ] in
          let* v = gen_value ty in
          pure (Abdm.Query.conj [ Abdm.Predicate.make c op v ]) );
      ]
  in
  frequency
    [
      (1, gen_create relation);
      ( 8,
        (* all columns in order, or a subset by name (the rest are NULL) *)
        let* named = bool in
        let* chosen =
          if named then map (List.filter_map Fun.id) (flatten_l (List.map (fun col -> opt (pure col)) cols))
          else pure cols
        in
        let* values = flatten_l (List.map (fun (_, ty) -> gen_value ty) chosen) in
        let columns = if named then Some (List.map fst chosen) else None in
        pure (Relational.Sql_ast.Insert { table; columns; values }) );
      ( 3,
        let* sets = list_size (int_range 1 2) gen_set in
        let* where = gen_where in
        pure (Relational.Sql_ast.Update { table; sets; where }) );
      (1, map (fun where -> Relational.Sql_ast.Delete { table; where }) gen_where);
    ]

(* both tables first (a later CREATE is a duplicate), then the script *)
let gen_script =
  let open QCheck2.Gen in
  let* creates = flatten_l (List.map gen_create oracle_columns) in
  let* rest = list_size (int_range 1 30) gen_stmt in
  pure (creates @ rest)

let contents kernel =
  List.of_seq (Mapping.Kernel.to_seq kernel)
  |> List.map (fun (key, r) -> Printf.sprintf "@%d %s" key (Abdm.Record.to_string r))

(* no two live rows of a table share a non-NULL value of a UNIQUE column *)
let unique_holds schema kernel =
  List.for_all
    (fun (rel : Relational.Types.relation) ->
      let rows =
        List.map snd
          (Mapping.Kernel.select kernel
             (Abdm.Query.conj [ Abdm.Predicate.file_eq rel.rel_name ]))
      in
      List.for_all
        (fun (col : Relational.Types.column) ->
          let values =
            List.filter_map
              (fun r ->
                match Abdm.Record.value_of r col.col_name with
                | Some v when not (Abdm.Value.is_null v) -> Some v
                | Some _ | None -> None)
              rows
          in
          (not col.col_unique)
          || List.for_all
               (fun v ->
                 List.length (List.filter (Abdm.Predicate.eval Abdm.Predicate.Eq v) values)
                 = 1)
               values)
        rel.rel_columns)
    schema.Relational.Types.relations

let show_result = function
  | Ok o -> Relational.Engine.outcome_to_string o
  | Error msg -> "error: " ^ msg

(* Every statement has the oracle's outcome on every kernel, the final
   contents (database keys included) are the oracle's, and UNIQUE holds
   after every statement. *)
let prop_unique_matches_oracle =
  QCheck2.Test.make ~count:1000
    ~name:"SQL UNIQUE: kernel insert_unique = retrieve-then-insert oracle"
    ~print:(fun stmts ->
      String.concat "\n" (List.map Relational.Sql_ast.to_string stmts))
    gen_script
    (fun stmts ->
      let oracle = Sql_oracle.create (Mapping.Kernel.single ()) "db" in
      let engines =
        List.map
          (fun (name, kernel) ->
            let k = kernel () in
            name, k, Relational.Engine.create k "db")
          kernels
      in
      List.for_all
        (fun stmt ->
          let want = Sql_oracle.execute oracle stmt in
          List.for_all
            (fun (name, k, e) ->
              let got = Relational.Engine.execute e stmt in
              (got = want && unique_holds (Relational.Engine.schema e) k)
              || QCheck2.Test.fail_reportf "%s on %s: got %s, oracle %s"
                   (Relational.Sql_ast.to_string stmt) name (show_result got)
                   (show_result want))
            engines)
        stmts
      && List.for_all
           (fun (name, k, _) ->
             contents k = contents (Sql_oracle.kernel oracle)
             || QCheck2.Test.fail_reportf "final contents differ on %s" name)
           engines)

(* --- a column named twice ----------------------------------------------- *)

(* An INSERT column list or an UPDATE SET list naming a column twice is
   rejected before any kernel request: with ids 1 and 2 present, (id, id)
   once clashed on a value it never wrote, or silently stored the first;
   SET id = 1, id = 5 was refused for the probe of 1. *)
let test_column_named_twice () =
  List.iter
    (fun (name, kernel) ->
      let k = kernel () in
      let t = Relational.Engine.create k "u" in
      run_all t
        [ "CREATE TABLE t (id INT UNIQUE, n INT)"; "INSERT INTO t VALUES (1, 10)";
          "INSERT INTO t VALUES (2, 20)" ];
      let rejected src want =
        let msg, log = Mapping.Kernel.collect k (fun () -> expect_error t src) in
        Alcotest.(check string) (name ^ ": " ^ src) want msg;
        Alcotest.(check int) (name ^ ": no request for " ^ src) 0 (List.length log)
      in
      rejected "INSERT INTO t (id, id) VALUES (1, 2)" "INSERT INTO t: column id named twice";
      rejected "INSERT INTO t (id, id) VALUES (3, 2)" "INSERT INTO t: column id named twice";
      rejected "INSERT INTO t (n, id, n) VALUES (1, 3, 2)"
        "INSERT INTO t: column n named twice";
      rejected "UPDATE t SET id = 1, id = 5 WHERE id = 2"
        "UPDATE t: column id assigned twice";
      rejected "UPDATE t SET n = 1, id = 7, n = 2" "UPDATE t: column n assigned twice";
      expect_outcome t "SELECT id, n FROM t ORDER BY id" "id | n\n1 | 10\n2 | 20")
    kernels

(* A CREATE TABLE naming a column twice, or naming one FILE (the
   attribute of every record's file keyword), is refused; an INSERT into
   the table it did not create is an error reply, not a raise. *)
let test_create_table_bad_columns () =
  List.iter
    (fun (name, kernel) ->
      let t = Relational.Engine.create (kernel ()) "u" in
      let check src want =
        Alcotest.(check string) (name ^ ": " ^ src) want (expect_error t src)
      in
      check "CREATE TABLE t (a INT, a INT)" "CREATE TABLE t: column a named twice";
      check "CREATE TABLE t (a INT, b CHAR(4), a FLOAT)"
        "CREATE TABLE t: column a named twice";
      check "CREATE TABLE u (FILE INT)" "CREATE TABLE u: column name FILE is reserved";
      check "CREATE TABLE u (a INT, FILE CHAR(4))"
        "CREATE TABLE u: column name FILE is reserved";
      Alcotest.(check bool) (name ^ ": no table created") true
        (Relational.Types.find_relation (Relational.Engine.schema t) "t" = None
         && Relational.Types.find_relation (Relational.Engine.schema t) "u" = None);
      ignore (expect_error t "INSERT INTO t VALUES (1, 2)");
      ignore (expect_error t "INSERT INTO u VALUES (1)");
      run_all t [ "CREATE TABLE t (a INT, b INT)"; "INSERT INTO t VALUES (1, 2)" ];
      expect_outcome t "SELECT a, b FROM t" "a | b\n1 | 2")
    kernels

(* --- the SQL parser against the list-stream parser ------------------------ *)

(* One known change: the cursor lexes only as far as the parser reads, so
   a syntax error before a lexical error is the one reported; the list
   parser lexed the whole text first. A lexical error first is reported
   by both. *)
let test_syntax_error_before_lex_error () =
  let parse_error f src =
    match f src with
    | _ -> Alcotest.failf "%s: parsed" src
    | exception Relational.Sql_parser.Parse_error msg -> msg
  in
  let src = "SELECT * FORM t; 'open" in
  Alcotest.check_raises "the list lexer stops at the open quote"
    (Abdl.Lexer.Lex_error "unterminated string literal") (fun () ->
      ignore (Parse_oracle.tokens src));
  Alcotest.(check string) "the syntax error comes first" "expected FROM, got FORM"
    (parse_error Relational.Sql_parser.program src);
  Alcotest.(check string) "stmt: the same" "expected FROM, got FORM"
    (parse_error Relational.Sql_parser.stmt src);
  Alcotest.(check string) "a lexical error first" "unterminated string literal"
    (parse_error Relational.Sql_parser.program "SELECT * FROM t WHERE a = 'open");
  Alcotest.(check string) "stmt lexes past its separator" "unexpected character '@' at 17"
    (parse_error Relational.Sql_parser.stmt "SELECT * FROM t; @")

(* Texts of INSERT, SELECT, UPDATE, DELETE and CREATE statements in mixed
   keyword case, with literals of every lexical form; one in three has a
   token dropped, duplicated or replaced by a stray fragment, which may
   be a lexical error (an open quote, '@', an int past the range). *)
let gen_sql_text =
  let open QCheck2.Gen in
  let kw word =
    let lower = String.lowercase_ascii word in
    oneofl [ word; lower; String.capitalize_ascii lower ]
  in
  let ident = oneofl [ "t"; "u"; "id"; "n"; "s"; "t.id"; "u.n"; "count"; "avg"; "null" ] in
  let literal =
    frequency
      [ ( 30,
          oneofl
            [ "1"; "-7"; "0"; "42"; "2.5"; "-1.5e-2"; "3E2"; "'x'"; "'it''s'"; "''";
              "NULL"; "null"; "s" ] );
        1, pure "12345678901234567890" ]
  in
  let list_of g = map (String.concat ", ") (list_size (int_range 1 3) g) in
  let op = oneofl [ "="; "<>"; "!="; "<"; "<="; ">"; ">=" ] in
  let cond =
    let comparison = map3 (fun c o v -> c ^ " " ^ o ^ " " ^ v) ident op literal in
    let* a = comparison and* b = comparison and* c = comparison in
    let* conn1 = kw "AND" and* conn2 = kw "OR" in
    oneofl
      [ a; a ^ " " ^ conn1 ^ " " ^ b;
        "(" ^ a ^ " " ^ conn2 ^ " " ^ b ^ ") " ^ conn1 ^ " " ^ c ]
  in
  let opt_where =
    frequency [ 1, pure ""; 2, map2 (fun w c -> " " ^ w ^ " " ^ c) (kw "WHERE") cond ]
  in
  let insert =
    let* insert = kw "INSERT" and* into = kw "INTO" and* values = kw "VALUES" in
    let* table = ident and* cols = opt (list_of ident) and* vals = list_of literal in
    let cols = match cols with Some c -> " (" ^ c ^ ")" | None -> "" in
    pure (Printf.sprintf "%s %s %s%s %s (%s)" insert into table cols values vals)
  in
  let select =
    let item =
      frequency
        [ 3, ident; 1, pure "*";
          ( 1,
            map2
              (fun f c -> f ^ "(" ^ c ^ ")")
              (oneofl [ "COUNT"; "sum"; "Avg"; "MIN"; "max" ])
              (oneofl [ "*"; "n" ]) ) ]
    in
    let* select = kw "SELECT" and* from = kw "FROM" and* items = list_of item in
    let* tables = list_of ident and* where = opt_where in
    let* tail =
      frequency
        [ 2, pure "";
          1, map2 (fun g c -> " " ^ g ^ " BY " ^ c) (kw "GROUP") ident;
          1, map2 (fun o c -> " " ^ o ^ " by " ^ c) (kw "ORDER") ident ]
    in
    pure (Printf.sprintf "%s %s %s %s%s%s" select items from tables where tail)
  in
  let update =
    let* update = kw "UPDATE" and* set = kw "SET" and* table = ident in
    let* sets = list_of (map2 (fun c v -> c ^ " = " ^ v) ident literal)
    and* where = opt_where in
    pure (Printf.sprintf "%s %s %s %s%s" update table set sets where)
  in
  let delete =
    let* delete = kw "DELETE" and* from = kw "FROM" and* table = ident
    and* where = opt_where in
    pure (Printf.sprintf "%s %s %s%s" delete from table where)
  in
  let create =
    let column =
      map3 (fun c ty u -> c ^ " " ^ ty ^ u) ident
        (oneofl [ "INT"; "integer"; "FLOAT"; "real"; "CHAR(8)"; "varchar"; "TEXT"; "BLOB" ])
        (oneofl [ ""; " UNIQUE"; " unique" ])
    in
    let* create = kw "CREATE" and* table = kw "TABLE" and* name = ident in
    let* cols = list_of column in
    pure (Printf.sprintf "%s %s %s (%s)" create table name cols)
  in
  let statement = frequency [ 4, insert; 3, select; 2, update; 2, delete; 1, create ] in
  let* stmts = list_size (int_range 1 4) statement in
  let text = String.concat ";\n" stmts in
  let* damage = int_range 0 2 in
  if damage > 0 then pure text
  else
    (* cut the text at a space and splice in a fragment, or drop a word *)
    let* at = int_range 0 (String.length text) in
    let* fragment =
      oneofl
        [ ""; "("; ")"; ","; ";"; "'"; "@"; "WHERE"; "= ="; "99999999999999999999";
          "FROM" ]
    in
    let before = String.sub text 0 at
    and after = String.sub text at (String.length text - at) in
    pure (before ^ " " ^ fragment ^ " " ^ after)

let parse_outcome f src =
  match f src with
  | ast -> Ok ast
  | exception Relational.Sql_parser.Parse_error msg -> Error ("parse: " ^ msg)
  | exception Failure msg -> Error ("failure: " ^ msg)

(* The parser over the lexer cursor against the list-stream parser
   (test/parse_oracle.ml), whose lexical error is raised where the cursor
   would raise it: the same statements or the same error, for whole
   scripts and for single statements. *)
let prop_parser_matches_list_parser =
  QCheck2.Test.make ~name:"SQL parser on the cursor = list-stream parser" ~count:2000
    ~print:Fun.id gen_sql_text (fun src ->
      parse_outcome Relational.Sql_parser.program src
      = parse_outcome Parse_oracle.Old_sql.program src
      && parse_outcome Relational.Sql_parser.stmt src = parse_outcome Parse_oracle.Old_sql.stmt src)

(* --- the one-pass INSERT against the old INSERT ----------------------------- *)

(* A table of 1 to 4 typed columns, UNIQUE at random, then INSERTs with
   and without column lists: lists in any order, some naming an unknown
   column or a missing table, value counts off by one, values of every
   type (so wrong types and NULLs in UNIQUE columns) over few distinct
   values (so duplicate keys). *)
let gen_insert_script =
  let open QCheck2.Gen in
  let col_types = Relational.Types.[ C_int; C_float; C_string 0 ] in
  let* types = list_size (int_range 1 4) (oneofl col_types) in
  let* uniques = flatten_l (List.map (fun _ -> bool) types) in
  let columns =
    List.mapi
      (fun i (col_type, col_unique) ->
        { Relational.Types.col_name = Printf.sprintf "c%d" i; col_type; col_unique })
      (List.combine types uniques)
  in
  let names = List.map (fun (c : Relational.Types.column) -> c.col_name) columns in
  let value =
    frequency
      [ 3, map (fun i -> Abdm.Value.Int i) (int_range 0 2);
        1, map (fun i -> Abdm.Value.Float (float_of_int i +. 0.5)) (int_range 0 1);
        2, map (fun s -> Abdm.Value.Str s) (oneofl [ "p"; "q" ]);
        1, pure Abdm.Value.Null ]
  in
  let insert =
    let* table = frequency [ 12, pure "t"; 1, pure "zz" ] in
    let* columns =
      frequency
        [ 1, pure None;
          ( 2,
            let* kept = flatten_l (List.map (fun n -> map (fun b -> b, n) bool) names) in
            let kept = List.filter_map (fun (b, n) -> if b then Some n else None) kept in
            let* unknown = frequency [ 6, pure []; 1, pure [ "q" ] ] in
            map Option.some (shuffle_l (kept @ unknown)) ) ]
    in
    let width = match columns with Some c -> List.length c | None -> List.length names in
    let* off = frequency [ 8, pure 0; 1, pure 1; 1, pure (-1) ] in
    let* values = list_repeat (max 0 (width + off)) value in
    pure (Relational.Sql_ast.Insert { table; columns; values })
  in
  let* inserts = list_size (int_range 1 25) insert in
  pure
    (Relational.Sql_ast.Create_table { rel_name = "t"; rel_columns = columns } :: inserts)

(* What a kernel counted: the store's scans, or each backend's scanned,
   written and stored records. *)
let tallies kernel =
  match Mapping.Kernel.kds kernel with
  | Mapping.Kernel.Single store -> [ Abdm.Store.scan_count store ]
  | Mapping.Kernel.Multi ctrl ->
    List.concat_map (fun (s, w, n) -> [ s; w; n ]) (Mbds.Controller.backend_loads ctrl)

let insert_runs = ref 0

(* Every INSERT has the old INSERT's reply and issues the same kernel
   requests ([Kernel.collect]), and the stores end equal, database keys
   included, with the same scans and writes, on one store and on 2
   backends. *)
let prop_insert_matches_old_insert =
  QCheck2.Test.make ~name:"one-pass INSERT = the old INSERT" ~count:500
    ~print:(fun stmts -> String.concat ";\n" (List.map Relational.Sql_ast.to_string stmts))
    gen_insert_script
    (fun stmts ->
      List.for_all
        (fun (name, kernel) ->
          incr insert_runs;
          (* fresh controller names: fresh backend counters *)
          let k = kernel (Printf.sprintf "insert-%d" !insert_runs)
          and k_old = kernel (Printf.sprintf "insert-old-%d" !insert_runs) in
          let e = Relational.Engine.create k "db"
          and e_old = Relational.Engine.create k_old "db" in
          let requests log = List.map Abdl.Ast.to_string log in
          List.for_all
            (fun stmt ->
              match stmt with
              | Relational.Sql_ast.Insert { table; columns; values } ->
                let got, log =
                  Mapping.Kernel.collect k (fun () -> Relational.Engine.execute e stmt)
                in
                let want, log_old =
                  Mapping.Kernel.collect k_old (fun () ->
                      Insert_oracle.exec_insert k_old (Relational.Engine.schema e_old) table
                        columns values)
                in
                (got = want && requests log = requests log_old)
                || QCheck2.Test.fail_reportf "%s on %s: got %s, old %s"
                     (Relational.Sql_ast.to_string stmt) name (show_result got)
                     (show_result want)
              | _ -> Relational.Engine.execute e stmt = Relational.Engine.execute e_old stmt)
            stmts
          && (contents k = contents k_old
             || QCheck2.Test.fail_reportf "final contents differ on %s" name)
          && (tallies k = tallies k_old
             || QCheck2.Test.fail_reportf "scans or writes differ on %s" name))
        [ "single store", (fun _ -> Mapping.Kernel.single ());
          "2 backends", (fun name -> Mapping.Kernel.multi ~name 2) ])

(* SUM(v) over one row of 2^53 + 1 answers the row's value, as MAX(v)
   does: integer sums do not go through a float. *)
let test_sum_exact_int () =
  let t = Relational.Engine.create (Mapping.Kernel.single ()) "big" in
  List.iter
    (fun src -> ignore (Relational.Engine.run t src))
    [ "CREATE TABLE t (v INT)"; "INSERT INTO t VALUES (9007199254740993)" ];
  match Relational.Engine.run t "SELECT SUM(v), MAX(v) FROM t" with
  | Ok (Relational.Engine.Table { rows = [ [ sum; max ] ]; _ }) ->
    Alcotest.check value "SUM" (Abdm.Value.Int 9007199254740993) sum;
    Alcotest.check value "MAX" (Abdm.Value.Int 9007199254740993) max
  | Ok o -> Alcotest.failf "unexpected %s" (Relational.Engine.outcome_to_string o)
  | Error msg -> Alcotest.fail msg

let suite =
  suite
  @ [
      "UPDATE keeps UNIQUE", `Quick, test_update_unique;
      "UPDATE of a UNIQUE column lists its probes", `Quick,
      test_update_unique_translation;
      "UNIQUE INSERT claims no broadcast share", `Quick, test_insert_no_broadcast;
      QCheck_alcotest.to_alcotest prop_unique_matches_oracle;
      "a column named twice", `Quick, test_column_named_twice;
      "CREATE TABLE with a repeated or reserved column", `Quick,
      test_create_table_bad_columns;
      "a syntax error before a lexical error", `Quick,
      test_syntax_error_before_lex_error;
      QCheck_alcotest.to_alcotest prop_parser_matches_list_parser;
      QCheck_alcotest.to_alcotest prop_insert_matches_old_insert;
      "SUM of a large integer is exact", `Quick, test_sum_exact_int;
    ]

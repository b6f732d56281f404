(* Integration tests for the MLDS shell: registry, session opening rules
   (which language reaches which model), cross-model access, KFS. *)

let university_mlds ?backends ?fs () =
  let t = Mlds.System.create ?backends ?fs () in
  match
    Mlds.System.define_functional t ~name:"university" ~ddl:Daplex.University.ddl
      Daplex.University.rows
  with
  | Ok () -> t
  | Error msg -> Alcotest.failf "define university: %s" msg

let submit t language db src =
  match Mlds.System.open_handle t language ~db with
  | Error msg -> Alcotest.failf "open session: %s" msg
  | Ok h ->
    match Mlds.System.submit_handle h src with
    | Ok out -> out
    | Error e ->
      Alcotest.failf "submit %s: %s" src (Mlds.System.handle_error_to_string e)

let contains text needle = Daplex.Str_search.find text needle <> None

let test_define_and_registry () =
  let t = university_mlds () in
  Alcotest.(check bool) "listed" true
    (List.mem ("university", "functional") (Mlds.System.databases t));
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error
       (Mlds.System.define_functional t ~name:"university"
          ~ddl:Daplex.University.ddl []));
  Alcotest.(check bool) "kernel reachable" true
    (Mlds.System.kernel_of t "university" <> None)

let test_interface_matrix () =
  let t = university_mlds () in
  let ok lang = Result.is_ok (Mlds.System.open_handle t lang ~db:"university") in
  Alcotest.(check bool) "codasyl on functional (thesis path)" true
    (ok Mlds.System.L_codasyl);
  Alcotest.(check bool) "daplex on functional" true (ok Mlds.System.L_daplex);
  Alcotest.(check bool) "abdl on functional" true (ok Mlds.System.L_abdl);
  Alcotest.(check bool) "sql on functional (read-only view)" true
    (ok Mlds.System.L_sql);
  Alcotest.(check bool) "dli on functional rejected" false (ok Mlds.System.L_dli);
  Alcotest.(check bool) "unknown db" true
    (Result.is_error (Mlds.System.open_handle t Mlds.System.L_abdl ~db:"ghost"))

let test_codasyl_via_mlds () =
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_codasyl "university"
      {|MOVE 'Advanced Database' TO title IN course
FIND ANY course USING title IN course
GET course|}
  in
  Alcotest.(check bool) "found course" true (contains out "found course");
  Alcotest.(check bool) "got fields" true (contains out "Advanced Database")

let test_daplex_via_mlds () =
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_daplex "university"
      "FOR EACH s IN student SUCH THAT major(s) = 'Physics' PRINT name(s) END"
  in
  Alcotest.(check bool) "Zawis found" true (contains out "Zawis")

let test_abdl_via_mlds () =
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_abdl "university"
      "RETRIEVE ((FILE = student)) (COUNT(student))"
  in
  Alcotest.(check bool) "six students" true (contains out "COUNT(student)=6")

let test_same_answer_codasyl_and_daplex () =
  (* the multi-lingual claim: both languages see the same functional data *)
  let t = university_mlds () in
  let codasyl =
    submit t Mlds.System.L_codasyl "university"
      {|MOVE 'Coker' TO name IN person
FIND ANY person USING name IN person
FIND FIRST student WITHIN person_student
GET major IN student|}
  in
  let daplex =
    submit t Mlds.System.L_daplex "university"
      "FOR EACH s IN student SUCH THAT name(s) = 'Coker' PRINT major(s) END"
  in
  Alcotest.(check bool) "codasyl sees CS" true (contains codasyl "Computer Science");
  Alcotest.(check bool) "daplex sees CS" true (contains daplex "Computer Science")

let test_cross_language_update_visibility () =
  let t = university_mlds () in
  (* update by CODASYL-DML, observe via Daplex *)
  let _ =
    submit t Mlds.System.L_codasyl "university"
      {|MOVE 'Simulation' TO title IN course
FIND ANY course USING title IN course
MOVE 5 TO credits IN course
MODIFY credits IN course|}
  in
  let daplex =
    submit t Mlds.System.L_daplex "university"
      "FOR EACH c IN course SUCH THAT title(c) = 'Simulation' PRINT credits(c) END"
  in
  Alcotest.(check bool) "daplex sees the DML update" true
    (contains daplex "credits(c) = 5")

let test_network_db_via_codasyl () =
  let t = Mlds.System.create () in
  let ddl =
    {|SCHEMA NAME IS parts
RECORD NAME IS supplier
  ITEM sname TYPE IS CHARACTER 20
RECORD NAME IS part
  ITEM pname TYPE IS CHARACTER 20
  ITEM weight TYPE IS FIXED
SET NAME IS supplies
  OWNER IS supplier
  MEMBER IS part
  INSERTION IS MANUAL
  RETENTION IS OPTIONAL
  SET SELECTION IS BY APPLICATION
|}
  in
  begin
    match Mlds.System.define_network t ~name:"parts" ~ddl with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let out =
    submit t Mlds.System.L_codasyl "parts"
      {|MOVE 'Acme' TO sname IN supplier
STORE supplier
MOVE 'bolt' TO pname IN part
MOVE 5 TO weight IN part
STORE part
CONNECT part TO supplies
FIND FIRST part WITHIN supplies
GET part|}
  in
  Alcotest.(check bool) "part stored and connected" true (contains out "bolt");
  (* navigate back to the owner *)
  let out2 =
    submit t Mlds.System.L_codasyl "parts"
      {|MOVE 'bolt' TO pname IN part
FIND ANY part USING pname IN part
FIND OWNER WITHIN supplies
GET supplier|}
  in
  Alcotest.(check bool) "owner found" true (contains out2 "Acme")

let test_sql_and_dli_databases () =
  let t = Mlds.System.create () in
  begin
    match Mlds.System.define_relational t ~name:"payroll" with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let _ =
    submit t Mlds.System.L_sql "payroll"
      "CREATE TABLE emp (name CHAR(10), salary INT); INSERT INTO emp VALUES ('a', 10); INSERT INTO emp VALUES ('b', 30)"
  in
  let out = submit t Mlds.System.L_sql "payroll" "SELECT SUM(salary) FROM emp" in
  Alcotest.(check bool) "sum 40" true (contains out "40");
  begin
    match
      Mlds.System.define_hierarchical t ~name:"med"
        ~ddl:"DATABASE med\nSEGMENT patient (pname CHAR(10), pid INT)\nSEGMENT visit PARENT patient (cost INT)"
    with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let out =
    submit t Mlds.System.L_dli "med"
      {|ISRT patient (pname = 'Doe', pid = 1)
ISRT patient(pid = 1) visit (cost = 9)
GU patient(pid = 1) visit(cost = 9)|}
  in
  Alcotest.(check bool) "dli finds visit" true (contains out "cost=9")

let test_kfs_table () =
  let rendered =
    Mlds.Kfs.table [ "name"; "salary" ]
      [
        [ Abdm.Value.Str "Hsiao"; Abdm.Value.Int 72000 ];
        [ Abdm.Value.Str "Lum"; Abdm.Value.Int 68000 ];
      ]
  in
  Alcotest.(check bool) "header present" true (contains rendered "name");
  Alcotest.(check bool) "rule present" true (contains rendered "-----");
  Alcotest.(check bool) "aligned column" true (contains rendered "Hsiao  72000")

let test_language_of_string () =
  Alcotest.(check bool) "codasyl" true
    (Mlds.System.language_of_string "CODASYL-DML" = Some Mlds.System.L_codasyl);
  Alcotest.(check bool) "daplex" true
    (Mlds.System.language_of_string "daplex" = Some Mlds.System.L_daplex);
  Alcotest.(check bool) "sql" true
    (Mlds.System.language_of_string "SQL" = Some Mlds.System.L_sql);
  Alcotest.(check bool) "dli" true
    (Mlds.System.language_of_string "DL/I" = Some Mlds.System.L_dli);
  Alcotest.(check bool) "abdl" true
    (Mlds.System.language_of_string "abdl" = Some Mlds.System.L_abdl);
  Alcotest.(check bool) "unknown" true
    (Mlds.System.language_of_string "prolog" = None)

let test_mlds_on_mbds () =
  let t = university_mlds ~backends:4 () in
  let out =
    submit t Mlds.System.L_abdl "university"
      "RETRIEVE ((FILE = faculty)) (COUNT(faculty))"
  in
  Alcotest.(check bool) "six faculty on 4 backends" true
    (contains out "COUNT(faculty)=6")

(* An integer literal past the [int] range is a lexical error in every
   language: a parse-error reply from [submit_handle], which raises
   nothing. *)
let test_int_literal_out_of_range () =
  let t = university_mlds () in
  let define = function Ok () -> () | Error msg -> Alcotest.fail msg in
  define (Mlds.System.define_relational t ~name:"payroll");
  define
    (Mlds.System.define_hierarchical t ~name:"med"
       ~ddl:"DATABASE med\nSEGMENT patient (pname CHAR(10), pid INT)");
  let huge = "99999999999999999999" in
  List.iter
    (fun (language, db, src) ->
      match Mlds.System.open_handle t language ~db with
      | Error msg -> Alcotest.failf "open session: %s" msg
      | Ok h ->
        match Mlds.System.submit_handle h src with
        | Ok out -> Alcotest.failf "%s accepted: %s" src out
        | Error e ->
          let msg = Mlds.System.handle_error_to_string e in
          Alcotest.(check bool) (src ^ ": " ^ msg) true
            (contains msg "integer literal out of range"))
    [
      ( Mlds.System.L_abdl, "university",
        "RETRIEVE ((FILE = student) AND (age = " ^ huge ^ ")) (name)" );
      Mlds.System.L_sql, "payroll", "INSERT INTO v VALUES (" ^ huge ^ ")";
      ( Mlds.System.L_codasyl, "university",
        "MOVE " ^ huge ^ " TO age IN student\nFIND ANY student USING age IN student" );
      ( Mlds.System.L_daplex, "university",
        "FOR EACH s IN student SUCH THAT age(s) = " ^ huge ^ " PRINT name(s) END" );
      Mlds.System.L_dli, "med", "GU patient(pid = " ^ huge ^ ")";
    ]

let suite =
  [
    "define and registry", `Quick, test_define_and_registry;
    "interface matrix", `Quick, test_interface_matrix;
    "codasyl via mlds", `Quick, test_codasyl_via_mlds;
    "daplex via mlds", `Quick, test_daplex_via_mlds;
    "abdl via mlds", `Quick, test_abdl_via_mlds;
    "same answer in two languages", `Quick, test_same_answer_codasyl_and_daplex;
    "cross-language update visibility", `Quick, test_cross_language_update_visibility;
    "network db via codasyl", `Quick, test_network_db_via_codasyl;
    "sql and dli databases", `Quick, test_sql_and_dli_databases;
    "kfs table", `Quick, test_kfs_table;
    "language of string", `Quick, test_language_of_string;
    "mlds on mbds", `Quick, test_mlds_on_mbds;
    "integer literal out of range, per language", `Quick,
    test_int_literal_out_of_range;
  ]

(* --- persistence -------------------------------------------------------- *)

let test_persist_roundtrip_functional () =
  let t = university_mlds () in
  let text =
    match Mlds.Persist.dump t ~db:"university" with
    | Ok text -> text
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check bool) "header" true (contains text "%MODEL functional");
  let t2 = Mlds.System.create () in
  begin
    match Mlds.Persist.restore t2 ~text with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  (* the restored database answers exactly like the original *)
  let q =
    "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT name(s), name(advisor(s)) END"
  in
  Alcotest.(check string) "same daplex answers"
    (submit t Mlds.System.L_daplex "university" q)
    (submit t2 Mlds.System.L_daplex "university" q);
  (* and through CODASYL-DML too *)
  let dml =
    {|MOVE 'Coker' TO name IN person
FIND ANY person USING name IN person
FIND FIRST student WITHIN person_student
GET major IN student|}
  in
  Alcotest.(check bool) "codasyl works on restored db" true
    (contains (submit t2 Mlds.System.L_codasyl "university" dml) "Computer Science")

let test_persist_quotes_survive () =
  let t = Mlds.System.create () in
  begin
    match Mlds.System.define_relational t ~name:"notes" with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_sql "notes"
       "CREATE TABLE memo (body CHAR(40)); INSERT INTO memo VALUES ('it''s a test')");
  let text =
    match Mlds.Persist.dump t ~db:"notes" with
    | Ok text -> text
    | Error msg -> Alcotest.fail msg
  in
  let t2 = Mlds.System.create () in
  begin
    match Mlds.Persist.restore t2 ~text with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let out = submit t2 Mlds.System.L_sql "notes" "SELECT body FROM memo" in
  Alcotest.(check bool) "quoted string survives" true (contains out "it's a test")

let test_persist_file_roundtrip () =
  let t = university_mlds () in
  let file = Filename.temp_file "mlds" ".db" in
  begin
    match Mlds.Persist.save t ~db:"university" ~file with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let t2 = Mlds.System.create () in
  begin
    match Mlds.Persist.load t2 ~file with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  Sys.remove file;
  Alcotest.(check bool) "restored from file" true
    (List.mem ("university", "functional") (Mlds.System.databases t2))

(* A v3 save file around [body]: the header line, then [body], then
   the %CRC trailer over it. *)
let v3_file body = "%MLDS 3\n" ^ body ^ Printf.sprintf "%%CRC %08x\n" (Mlds.Wal.crc32 body)

let test_persist_bad_files () =
  let t = Mlds.System.create () in
  let error text =
    match Mlds.Persist.restore t ~text with Ok () -> "" | Error msg -> msg
  in
  Alcotest.(check bool) "not a save file" true (contains (error "hello") "not an MLDS save file");
  Alcotest.(check bool) "missing model" true
    (contains (error (v3_file "%NAME x\n%DDL\n%DATA\n")) "missing %MODEL");
  Alcotest.(check bool) "unknown model" true
    (contains (error (v3_file "%MODEL prolog\n%NAME x\n%DDL\n%DATA\n")) "unknown data model");
  Alcotest.(check bool) "an older version is refused by name" true
    (contains (error "%MLDS 2\n%CRC 00000000\n%MODEL relational\n%NAME x\n%DDL\n%DATA\n")
       "unsupported save file version \"%MLDS 2\"")

let suite =
  suite
  @ [
      "persist functional roundtrip", `Quick, test_persist_roundtrip_functional;
      "persist quotes survive", `Quick, test_persist_quotes_survive;
      "persist file roundtrip", `Quick, test_persist_file_roundtrip;
      "persist bad files", `Quick, test_persist_bad_files;
    ]

(* --- SQL on a hierarchical database (the §VII companion direction) --------- *)

let medical_mlds () =
  let t = Mlds.System.create () in
  begin
    match
      Mlds.System.define_hierarchical t ~name:"medical"
        ~ddl:
          {|DATABASE medical
SEGMENT patient (pname CHAR(20), pid INT)
SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)|}
    with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_dli "medical"
       {|ISRT patient (pname = 'Doe', pid = 1)
ISRT patient(pid = 1) visit (vdate = 'Jan', cost = 100)
ISRT patient(pid = 1) visit (vdate = 'Feb', cost = 250)
ISRT patient (pname = 'Roe', pid = 2)
ISRT patient(pid = 2) visit (vdate = 'Mar', cost = 80)|});
  t

let test_sql_on_hierarchical_select () =
  let t = medical_mlds () in
  let out = submit t Mlds.System.L_sql "medical" "SELECT pname FROM patient" in
  Alcotest.(check bool) "both patients" true
    (contains out "Doe" && contains out "Roe")

let test_sql_on_hierarchical_aggregate () =
  let t = medical_mlds () in
  let out =
    submit t Mlds.System.L_sql "medical"
      "SELECT COUNT(vdate), SUM(cost) FROM visit WHERE cost > 90"
  in
  Alcotest.(check bool) "two expensive visits, 350 total" true
    (contains out "2" && contains out "350")

let test_sql_on_hierarchical_join () =
  (* parent-child join over the derived parent-reference column *)
  let t = medical_mlds () in
  let out =
    submit t Mlds.System.L_sql "medical"
      "SELECT pname, vdate, cost FROM visit, patient WHERE visit.patient = patient.patient AND cost > 90"
  in
  Alcotest.(check bool) "Doe's two visits joined" true
    (contains out "Doe" && contains out "Jan" && contains out "Feb"
     && not (contains out "Roe"))

let test_sql_on_hierarchical_read_only () =
  let t = medical_mlds () in
  match Mlds.System.open_handle t Mlds.System.L_sql ~db:"medical" with
  | Error msg -> Alcotest.fail msg
  | Ok h ->
    match Mlds.System.submit_handle h "INSERT INTO patient VALUES (9, 'X', 9)" with
    | Ok out ->
      Alcotest.(check bool) "write refused" true (contains out "read-only")
    | Error e ->
      Alcotest.failf "expected inline error, got %s"
        (Mlds.System.handle_error_to_string e)

let test_sql_and_dli_consistent () =
  let t = medical_mlds () in
  (* update a visit via DL/I; SQL must see it *)
  ignore
    (submit t Mlds.System.L_dli "medical"
       "GU patient(pid = 1) visit(vdate = 'Jan'); REPL (cost = 140)");
  let out =
    submit t Mlds.System.L_sql "medical"
      "SELECT cost FROM visit WHERE vdate = 'Jan'"
  in
  Alcotest.(check bool) "SQL sees the DL/I REPL" true (contains out "140")

let suite =
  suite
  @ [
      "sql on hierarchical: select", `Quick, test_sql_on_hierarchical_select;
      "sql on hierarchical: aggregate", `Quick, test_sql_on_hierarchical_aggregate;
      "sql on hierarchical: join", `Quick, test_sql_on_hierarchical_join;
      "sql on hierarchical: read-only", `Quick, test_sql_on_hierarchical_read_only;
      "sql/dli consistency", `Quick, test_sql_and_dli_consistent;
    ]

(* --- SQL on a functional database (third cross-model path) ----------------- *)

let test_sql_on_functional_select () =
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_sql "university"
      "SELECT title, credits FROM course WHERE semester = 'Fall'"
  in
  Alcotest.(check bool) "fall courses listed" true
    (contains out "Advanced Database" && contains out "Queueing Theory")

let test_sql_on_functional_isa_join () =
  (* students joined to their person records through the ISA reference *)
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_sql "university"
      "SELECT name, major FROM student, person WHERE person_student = person.person AND major = 'Physics'"
  in
  Alcotest.(check bool) "Zawis via ISA join" true (contains out "Zawis")

let test_sql_on_functional_read_only () =
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_sql "university" "DELETE FROM course WHERE credits = 4"
  in
  Alcotest.(check bool) "delete refused" true (contains out "read-only")

let suite =
  suite
  @ [
      "sql on functional: select", `Quick, test_sql_on_functional_select;
      "sql on functional: ISA join", `Quick, test_sql_on_functional_isa_join;
      "sql on functional: read-only", `Quick, test_sql_on_functional_read_only;
    ]

(* --- multi-user sessions (user_info, §IV.B) --------------------------------- *)

let test_user_sessions_isolated_currency () =
  let t = university_mlds () in
  let handle_of user =
    match Mlds.System.open_handle ~user t Mlds.System.L_codasyl ~db:"university" with
    | Ok h -> h
    | Error msg -> Alcotest.fail msg
  in
  let alice = handle_of "alice" in
  let bob = handle_of "bob" in
  let run h src =
    match Mlds.System.submit_handle h src with
    | Ok out -> out
    | Error e -> Alcotest.fail (Mlds.System.handle_error_to_string e)
  in
  (* alice walks to a course, bob to a person; each keeps their own
     run-unit across submissions *)
  ignore (run alice "MOVE 'Compilers' TO title IN course\nFIND ANY course USING title IN course");
  ignore (run bob "MOVE 'Hsiao' TO name IN person\nFIND ANY person USING name IN person");
  Alcotest.(check bool) "alice's GET sees her course" true
    (contains (run alice "GET") "Compilers");
  Alcotest.(check bool) "bob's GET sees his person" true
    (contains (run bob "GET") "Hsiao");
  Alcotest.(check bool) "alice's currency persists" true
    (contains (run alice "GET") "Compilers")

let suite =
  suite
  @ [ "user sessions isolate currency", `Quick, test_user_sessions_isolated_currency ]

let test_persist_network_roundtrip () =
  let t = Mlds.System.create () in
  let ddl =
    {|SCHEMA NAME IS parts
RECORD NAME IS supplier
  ITEM sname TYPE IS CHARACTER 20
RECORD NAME IS part
  ITEM pname TYPE IS CHARACTER 20
SET NAME IS supplies
  OWNER IS supplier
  MEMBER IS part
  INSERTION IS MANUAL
  RETENTION IS OPTIONAL
  SET SELECTION IS BY APPLICATION|}
  in
  begin
    match Mlds.System.define_network t ~name:"parts" ~ddl with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_codasyl "parts"
       {|MOVE 'Acme' TO sname IN supplier
STORE supplier
MOVE 'bolt' TO pname IN part
STORE part
CONNECT part TO supplies|});
  let text =
    match Mlds.Persist.dump t ~db:"parts" with
    | Ok text -> text
    | Error msg -> Alcotest.fail msg
  in
  let t2 = Mlds.System.create () in
  begin
    match Mlds.Persist.restore t2 ~text with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let out =
    submit t2 Mlds.System.L_codasyl "parts"
      {|MOVE 'bolt' TO pname IN part
FIND ANY part USING pname IN part
FIND OWNER WITHIN supplies
GET supplier|}
  in
  Alcotest.(check bool) "set membership survives" true (contains out "Acme")

let test_persist_hierarchical_roundtrip () =
  let t = medical_mlds () in
  let text =
    match Mlds.Persist.dump t ~db:"medical" with
    | Ok text -> text
    | Error msg -> Alcotest.fail msg
  in
  let t2 = Mlds.System.create () in
  begin
    match Mlds.Persist.restore t2 ~text with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let out =
    submit t2 Mlds.System.L_dli "medical" "GU patient(pid = 1) visit(cost > 200)"
  in
  Alcotest.(check bool) "hierarchy survives" true (contains out "Feb")

let suite =
  suite
  @ [
      "persist network roundtrip", `Quick, test_persist_network_roundtrip;
      "persist hierarchical roundtrip", `Quick, test_persist_hierarchical_roundtrip;
    ]

(* --- Daplex on a network database (reverse cross-model path) --------------- *)

let parts_mlds () =
  let t = Mlds.System.create () in
  begin
    match
      Mlds.System.define_network t ~name:"parts"
        ~ddl:
          {|SCHEMA NAME IS parts
RECORD NAME IS supplier
  ITEM sname TYPE IS CHARACTER 20
  ITEM city TYPE IS CHARACTER 15
RECORD NAME IS part
  ITEM pname TYPE IS CHARACTER 20
  ITEM weight TYPE IS FIXED
SET NAME IS supplies
  OWNER IS supplier
  MEMBER IS part
  INSERTION IS MANUAL
  RETENTION IS OPTIONAL
  SET SELECTION IS BY APPLICATION|}
    with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_codasyl "parts"
       {|MOVE 'Acme' TO sname IN supplier
MOVE 'Monterey' TO city IN supplier
STORE supplier
MOVE 'bolt' TO pname IN part
MOVE 5 TO weight IN part
STORE part
CONNECT part TO supplies
MOVE 'nut' TO pname IN part
MOVE 2 TO weight IN part
STORE part
CONNECT part TO supplies|});
  t

let test_daplex_on_network_select () =
  let t = parts_mlds () in
  let out =
    submit t Mlds.System.L_daplex "parts"
      "FOR EACH p IN part SUCH THAT weight(p) > 3 PRINT pname(p) END"
  in
  Alcotest.(check bool) "heavy part found" true (contains out "bolt")

let test_daplex_on_network_set_navigation () =
  (* the CODASYL set reads as a single-valued function of the member *)
  let t = parts_mlds () in
  let out =
    submit t Mlds.System.L_daplex "parts"
      "FOR EACH p IN part PRINT pname(p), sname(supplies(p)) END"
  in
  Alcotest.(check bool) "owner reachable through the set-function" true
    (contains out "bolt" && contains out "Acme");
  let out2 =
    submit t Mlds.System.L_daplex "parts"
      "FOR EACH p IN part SUCH THAT city(supplies(p)) = 'Monterey' PRINT pname(p) END"
  in
  Alcotest.(check bool) "condition through the set-function" true
    (contains out2 "nut")

let test_daplex_on_network_update () =
  let t = parts_mlds () in
  ignore
    (submit t Mlds.System.L_daplex "parts"
       "FOR EACH p IN part SUCH THAT pname(p) = 'nut' LET weight(p) = 3 END");
  (* visible back through CODASYL-DML *)
  let out =
    submit t Mlds.System.L_codasyl "parts"
      {|MOVE 'nut' TO pname IN part
FIND ANY part USING pname IN part
GET weight IN part|}
  in
  Alcotest.(check bool) "codasyl sees the daplex LET" true (contains out "weight=3")

let suite =
  suite
  @ [
      "daplex on network: select", `Quick, test_daplex_on_network_select;
      "daplex on network: set navigation", `Quick, test_daplex_on_network_set_navigation;
      "daplex on network: update", `Quick, test_daplex_on_network_update;
    ]

let test_sql_on_network () =
  let t = parts_mlds () in
  let out =
    submit t Mlds.System.L_sql "parts"
      "SELECT pname, sname FROM part, supplier WHERE supplies = supplier.supplier"
  in
  Alcotest.(check bool) "set join through SQL" true
    (contains out "bolt" && contains out "Acme");
  let out2 = submit t Mlds.System.L_sql "parts" "DELETE FROM part" in
  Alcotest.(check bool) "read-only" true (contains out2 "read-only")

let suite = suite @ [ "sql on network", `Quick, test_sql_on_network ]

(* --- KFS and submit error paths --------------------------------------------- *)

let test_submit_parse_errors () =
  let t = university_mlds () in
  let check lang src =
    match Mlds.System.open_handle t lang ~db:"university" with
    | Error msg -> Alcotest.fail msg
    | Ok h ->
      Alcotest.(check bool) "parse error surfaces" true
        (Result.is_error (Mlds.System.submit_handle h src))
  in
  check Mlds.System.L_codasyl "FROBNICATE things";
  check Mlds.System.L_daplex "FOR EACH x PRINT y";
  check Mlds.System.L_abdl "RETRIEVE oops"

let test_kfs_inline_errors () =
  (* statement-level failures appear inline, prefixed, not as Error *)
  let t = university_mlds () in
  let out =
    submit t Mlds.System.L_codasyl "university"
      "ERASE ALL course\nMOVE 1 TO credits IN course"
  in
  Alcotest.(check bool) "error marked inline" true (contains out "***");
  Alcotest.(check bool) "later statements still run" true (contains out "moved 1")

let suite =
  suite
  @ [
      "submit parse errors", `Quick, test_submit_parse_errors;
      "kfs inline errors", `Quick, test_kfs_inline_errors;
    ]

let test_independent_systems_same_db_name () =
  (* two MLDS instances must not share SQL engines for a same-named db *)
  let t1 = Mlds.System.create () in
  let t2 = Mlds.System.create () in
  ignore (Mlds.System.define_relational t1 ~name:"shared");
  ignore (Mlds.System.define_relational t2 ~name:"shared");
  ignore
    (submit t1 Mlds.System.L_sql "shared"
       "CREATE TABLE a (x INT); INSERT INTO a VALUES (1)");
  ignore
    (submit t2 Mlds.System.L_sql "shared"
       "CREATE TABLE a (x INT); INSERT INTO a VALUES (2); INSERT INTO a VALUES (3)");
  let out1 = submit t1 Mlds.System.L_sql "shared" "SELECT COUNT(x) FROM a" in
  let out2 = submit t2 Mlds.System.L_sql "shared" "SELECT COUNT(x) FROM a" in
  Alcotest.(check bool) "t1 sees one row" true (contains out1 "1");
  Alcotest.(check bool) "t2 sees two rows" true (contains out2 "2");
  Alcotest.(check bool) "t2 create table did not collide" true
    (not (contains out2 "***"))

let suite =
  suite
  @ [ "independent systems, same db name", `Quick, test_independent_systems_same_db_name ]

(* --- durability: keyed snapshots, atomic save, WAL recovery ----------------- *)

let dump_ok t db =
  match Mlds.Persist.dump t ~db with
  | Ok text -> text
  | Error msg -> Alcotest.fail msg

let restore_ok t text =
  match Mlds.Persist.restore t ~text with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let read_file file =
  let ic = open_in_bin file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let notes_mlds () =
  let t = Mlds.System.create () in
  begin
    match Mlds.System.define_relational t ~name:"notes" with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_sql "notes"
       "CREATE TABLE memo (body CHAR(40)); INSERT INTO memo VALUES ('alpha'); INSERT INTO memo VALUES ('beta')");
  t

(* dump ∘ restore ∘ dump must be byte-identical for every data model: the
   snapshot carries the database keys, so a restore is exact, not merely
   equivalent *)
let test_dump_restore_dump_identical () =
  List.iter
    (fun (db, mk) ->
      let t = mk () in
      let d1 = dump_ok t db in
      Alcotest.(check bool) (db ^ " has v3 header") true (contains d1 "%MLDS 3");
      Alcotest.(check bool) (db ^ " has checksum") true (contains d1 "%CRC ");
      let t2 = Mlds.System.create () in
      restore_ok t2 d1;
      Alcotest.(check string) (db ^ " byte-identical") d1 (dump_ok t2 db))
    [
      "university", (fun () -> university_mlds ());
      "medical", medical_mlds;
      "parts", parts_mlds;
      "notes", notes_mlds;
    ]

(* A string holding a raw newline, acked through SQL, survives a
   snapshot: data records end only at newlines outside quotes. *)
let test_newline_in_a_string_survives () =
  let t = Mlds.System.create () in
  (match Mlds.System.define_relational t ~name:"n" with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  ignore
    (submit t Mlds.System.L_sql "n"
       "CREATE TABLE n (id INT, v CHAR(20)); INSERT INTO n VALUES (1, 'two\nlines')");
  let d1 = dump_ok t "n" in
  let t2 = Mlds.System.create () in
  restore_ok t2 d1;
  Alcotest.(check string) "byte-identical" d1 (dump_ok t2 "n");
  Alcotest.(check bool) "the value reads back" true
    (List.exists
       (fun (_, r) -> Abdm.Record.value_of r "v" = Some (Abdm.Value.Str "two\nlines"))
       (Mapping.Kernel.select (Option.get (Mlds.System.kernel_of t2 "n")) Abdm.Query.always))

let backend_sizes_of t db =
  match Mapping.Kernel.kds (Option.get (Mlds.System.kernel_of t db)) with
  | Mapping.Kernel.Multi ctrl -> Mbds.Controller.backend_sizes ctrl
  | Mapping.Kernel.Single _ -> Alcotest.fail "expected an MBDS kernel"

let test_dump_restore_dump_identical_skewed_mbds () =
  let t =
    Mlds.System.create ~backends:3
      ~placement:(Mbds.Controller.Skewed 0.7) ()
  in
  begin
    match
      Mlds.System.define_functional t ~name:"university"
        ~ddl:Daplex.University.ddl Daplex.University.rows
    with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let d1 = dump_ok t "university" in
  Alcotest.(check bool) "kernel topology recorded" true
    (contains d1 "%KERNEL backends=3 placement=skewed:");
  (* the restoring system has different defaults: the spec in the file wins *)
  let t2 = Mlds.System.create () in
  restore_ok t2 d1;
  Alcotest.(check (list int)) "skewed placement reproduced"
    (backend_sizes_of t "university")
    (backend_sizes_of t2 "university");
  Alcotest.(check string) "byte-identical" d1 (dump_ok t2 "university")

(* Snapshots written before the shared pool carry the saving host's
   parallel=B in %KERNEL: an unknown field, ignored. Both settings
   restore to the same database, and the field is not written back. *)
let test_old_snapshots_restore () =
  let snapshot parallel =
    v3_file
      (String.concat "\n"
         [ "%MODEL relational"; "%NAME shop";
           "%KERNEL backends=2 placement=round-robin parallel=" ^ parallel;
           "%DDL"; "CREATE TABLE item (id INT, name CHAR(10))"; "%DATA";
           "@1 INSERT (<FILE, 'item'>, <id, 1>, <name, 'pen'>)";
           "@2 INSERT (<FILE, 'item'>, <id, 2>, <name, 'ink'>)"; "" ])
  in
  let restored text =
    let t = Mlds.System.create () in
    restore_ok t text;
    Alcotest.(check (list int)) "two backends, keys placed round-robin"
      [ 1; 1 ] (backend_sizes_of t "shop");
    dump_ok t "shop"
  in
  let with_true = restored (snapshot "true") in
  let with_false = restored (snapshot "false") in
  Alcotest.(check string) "same database" with_true with_false;
  Alcotest.(check bool) "parallel= not written back" false
    (contains with_true "parallel=");
  Alcotest.(check bool) "rows restored" true
    (contains with_true "@2 INSERT (<FILE, 'item'>, <id, 2>, <name, 'ink'>)")

let test_dbkeys_survive_restore () =
  let t = university_mlds () in
  let d = dump_ok t "university" in
  let t2 = Mlds.System.create () in
  restore_ok t2 d;
  let k1 = Option.get (Mlds.System.kernel_of t "university") in
  let k2 = Option.get (Mlds.System.kernel_of t2 "university") in
  (* every record is reachable under its original database key *)
  List.iter
    (fun (key, record) ->
      match Mapping.Kernel.get k2 key with
      | Some restored ->
        Alcotest.(check string)
          (Printf.sprintf "record under dbkey %d" key)
          (Abdm.Record.to_string record)
          (Abdm.Record.to_string restored)
      | None -> Alcotest.failf "dbkey %d lost by restore" key)
    (Mapping.Kernel.select k1 Abdm.Query.always);
  (* CODASYL currency indicators hold dbkeys: the same FIND navigation
     (FIND ANY, then FIND NEXT off the currency) answers identically *)
  let dml =
    {|MOVE 'Coker' TO name IN person
FIND ANY person USING name IN person
GET person
FIND FIRST student WITHIN person_student
GET major IN student|}
  in
  Alcotest.(check string) "currency navigation identical after restore"
    (submit t Mlds.System.L_codasyl "university" dml)
    (submit t2 Mlds.System.L_codasyl "university" dml)

let test_failed_save_leaves_old_file () =
  let fake = Fake_fs.create () in
  let t = university_mlds ~fs:(Fake_fs.fs fake) () in
  let file = Filename.temp_file "mlds" ".db" in
  begin
    match Mlds.Persist.save t ~db:"university" ~file with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  let before = read_file file in
  (* change the database so a successful save would write different bytes *)
  let kernel = Option.get (Mlds.System.kernel_of t "university") in
  ignore
    (Mapping.Kernel.insert kernel
       (Abdm.Record.make
          [ Abdm.Keyword.file "extra"; Abdm.Keyword.make "n" (Abdm.Value.Int 1) ]));
  (* the fault: half the snapshot reaches the temp file, then the disk
     fails the write of the rest *)
  Fake_fs.arm fake ~kind:Fake_fs.Write 1 (Fake_fs.Short (String.length before / 2));
  Fake_fs.arm fake ~kind:Fake_fs.Write 2 Fake_fs.Eio;
  Alcotest.(check bool) "injected save fails" true
    (Result.is_error (Mlds.Persist.save t ~db:"university" ~file));
  Alcotest.(check string) "old snapshot intact after failed save" before
    (read_file file);
  (* the fault is one-shot: the next save lands the new state *)
  begin
    match Mlds.Persist.save t ~db:"university" ~file with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  Alcotest.(check bool) "retry writes the new state" true
    (read_file file <> before);
  Sys.remove file

(* A checkpoint writes each chunk as it fills. When a chunk's write
   fails, the temp file is removed at once, the checkpoint reports the
   error and the old snapshot stays; the next checkpoint lands. *)
let test_failed_checkpoint_removes_temp () =
  let fake = Fake_fs.create () in
  let t = university_mlds ~fs:(Fake_fs.fs fake) () in
  let kernel = Option.get (Mlds.System.kernel_of t "university") in
  for i = 1 to 600 do
    ignore
      (Mapping.Kernel.insert kernel
         (Abdm.Record.make
            [ Abdm.Keyword.file "pad"; Abdm.Keyword.make "n" (Abdm.Value.Int i);
              Abdm.Keyword.make "note" (Abdm.Value.Str (String.make 160 'x')) ]))
  done;
  let dir = Filename.temp_dir "mldsckpt" "" in
  let file = Filename.concat dir "u.mlds" in
  let tmp = Mlds.Fs.temp_of file in
  (match Mlds.Persist.save t ~db:"university" ~file with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let before = read_file file in
  Fake_fs.arm fake ~kind:Fake_fs.Write ~path:(String.equal tmp) 1 Fake_fs.Eio;
  (match Mlds.Persist.checkpoint t ~db:"university" ~file with
  | Ok () -> Alcotest.fail "a failed checkpoint finished"
  | Error msg -> Alcotest.(check bool) "the error names the write" true (contains msg "write"));
  Alcotest.(check bool) "the temp file is gone" false (Sys.file_exists tmp);
  Alcotest.(check string) "old snapshot intact" before (read_file file);
  (match Mlds.Persist.checkpoint t ~db:"university" ~file with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "the retry lands the dump"
    (match Mlds.Persist.dump t ~db:"university" with Ok d -> d | Error m -> Alcotest.fail m)
    (read_file file);
  Sys.remove file;
  Sys.rmdir dir

(* A save that crashes leaves its temp file behind; the temp name is
   fixed, so the next save overwrites it instead of adding another. *)
let test_crashed_saves_leave_one_temp () =
  let dir = Filename.temp_dir "mldssave" "" in
  let file = Filename.concat dir "db.mlds" in
  for _ = 1 to 2 do
    let fake = Fake_fs.create () in
    let t = Mlds.System.create ~fs:(Fake_fs.fs fake) () in
    (match Mlds.System.define_relational t ~name:"r" with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg);
    Fake_fs.arm fake ~kind:Fake_fs.Write 1 Fake_fs.Torn_half;
    match Mlds.Persist.save t ~db:"r" ~file with
    | exception Mlds.Wal.Crash _ -> ()
    | _ -> Alcotest.fail "the armed save did not crash"
  done;
  let temps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check bool) "at most one temp file beside the snapshot" true
    (List.length temps <= 1);
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let test_checksum_rejects_corruption () =
  let t = university_mlds () in
  let d = dump_ok t "university" in
  (* corrupt one data byte: the %CRC header must catch it *)
  let corrupt = Bytes.of_string d in
  Bytes.set corrupt (Bytes.length corrupt - 2) '~';
  let t2 = Mlds.System.create () in
  match Mlds.Persist.restore t2 ~text:(Bytes.to_string corrupt) with
  | Ok () -> Alcotest.fail "corrupt snapshot accepted"
  | Error msg ->
    Alcotest.(check bool) "checksum error reported" true
      (contains msg "checksum")

let test_load_auto_recovers_wal () =
  let snap = Filename.temp_file "mlds" ".db" in
  let wal_file = snap ^ ".wal" in
  let t = Mlds.System.create () in
  begin
    match Mlds.System.define_relational t ~name:"journal" with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_sql "journal"
       "CREATE TABLE entry (body CHAR(20)); INSERT INTO entry VALUES ('snapshotted')");
  begin
    match Mlds.Persist.save t ~db:"journal" ~file:snap with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg
  end;
  (* everything after the snapshot goes only to the WAL *)
  begin
    match Mlds.System.attach_wal t ~db:"journal" ~file:wal_file with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg
  end;
  ignore
    (submit t Mlds.System.L_sql "journal"
       "INSERT INTO entry VALUES ('logged-1'); INSERT INTO entry VALUES ('logged-2')");
  Mlds.System.detach_wal t ~db:"journal";
  (* a fresh process: load the snapshot; the sibling .wal replays itself *)
  let t2 = Mlds.System.create () in
  begin
    match Mlds.Persist.load_report t2 ~file:snap with
    | Ok outcome ->
      (match outcome.Mlds.Persist.recovery with
      | Some r ->
        Alcotest.(check int) "both logged inserts recovered" 2
          r.Mlds.Persist.applied;
        Alcotest.(check bool) "log was clean" false r.Mlds.Persist.torn
      | None -> Alcotest.fail "sibling WAL not replayed")
    | Error msg -> Alcotest.fail msg
  end;
  let out = submit t2 Mlds.System.L_sql "journal" "SELECT body FROM entry" in
  Alcotest.(check bool) "snapshot row present" true (contains out "snapshotted");
  Alcotest.(check bool) "logged rows recovered" true
    (contains out "logged-1" && contains out "logged-2");
  Sys.remove snap;
  Sys.remove wal_file

let suite =
  suite
  @ [
      "dump-restore-dump byte-identical", `Quick, test_dump_restore_dump_identical;
      "a newline in a string survives a snapshot", `Quick,
      test_newline_in_a_string_survives;
      "dump-restore-dump on a skewed MBDS", `Quick,
      test_dump_restore_dump_identical_skewed_mbds;
      "snapshots with parallel= restore", `Quick, test_old_snapshots_restore;
      "dbkeys and currency survive restore", `Quick, test_dbkeys_survive_restore;
      "failed save leaves the old file", `Quick, test_failed_save_leaves_old_file;
      "crashed saves leave at most one temp file", `Quick,
      test_crashed_saves_leave_one_temp;
      "a failed checkpoint removes its temp file", `Quick,
      test_failed_checkpoint_removes_temp;
      "checksum rejects corruption", `Quick, test_checksum_rejects_corruption;
      "load auto-recovers the sibling wal", `Quick, test_load_auto_recovers_wal;
    ]

(* The LIL front ends over one token cursor (Abdl.Syntax): each parser
   against the list-stream parser it replaced (test/parse_oracle.ml), the
   one error-order change pinned per language, [Mlds.System.submit]
   never raising on damaged statements, and a bound on the words a parse
   allocates. *)

(* --- a corpus of statements and its damage ------------------------------- *)

(* Statements of the tests, the examples and the benchmark's streams. *)
let abdl_corpus =
  [ "RETRIEVE ((FILE = student)) (COUNT(student))";
    "RETRIEVE ((FILE = course) AND (title = 'Advanced Database')) (title, semester) BY title";
    "RETRIEVE ((FILE = person) AND (ssn = 501234)) (name, ssn)";
    "RETRIEVE ((FILE = person) AND (ssn >= 0) OR (FILE = course)) (ALL)";
    "retrieve (((FILE = acct) or (FILE = x)) and ((id < 3) or (id >= 2999))) (id, AVG(balance)) by owner";
    "INSERT (<FILE, acct>, <id, 9001>, <owner, 'x'>, <balance, -5>, <note, 1.5e3>)";
    "INSERT (<FILE, memo>, <id, 1> | 'a record''s textual portion')";
    "UPDATE ((FILE = acct) AND (id = 1)) (balance = balance + 100)";
    "UPDATE ((FILE = employee) AND (employee = 417)) (salary = 51234, note = note)";
    "DELETE ((FILE = acct) AND (id = 9001))";
    "RETRIEVE_COMMON ((FILE = acct)) (id) AND ((FILE = acct) AND (id < 5)) (id) (owner)";
    "RETRIEVE ((FILE = acct) AND (note = NULL)) (id); RETRIEVE ((FILE = acct) AND (id != 2)) (MIN(id), MAX(id), SUM(balance))" ]

let abdl_queries =
  [ "(FILE = course) AND (credits >= 3)";
    "((FILE = employee) AND (name = 'e2000')) OR (salary > 9000)";
    "(a = 1) AND ((b < 2) OR (c <> 'x')) AND (d <= -4)" ]

let sql_corpus =
  [ "CREATE TABLE t2 (a INT UNIQUE, b CHAR(8), c FLOAT)";
    "INSERT INTO acct (id, owner, balance, note) VALUES (9002, 'o', 1, 'n')";
    "INSERT INTO acct VALUES (9003, 'it''s', -2, NULL)";
    "SELECT id, owner, balance FROM acct WHERE id = 1234";
    "SELECT id, owner FROM acct WHERE id = 1 OR (balance > 10 AND note = 'n0')";
    "select owner, AVG(balance), COUNT( * ) from acct group by owner";
    "UPDATE acct SET note = 'w77', balance = 7 WHERE id = 2";
    "DELETE FROM acct WHERE id = 9002";
    "SELECT * FROM acct ORDER BY balance; SELECT MAX(id) FROM acct" ]

let codasyl_corpus =
  [ "MOVE 501234 TO ssn IN person\nFIND ANY person USING ssn IN person\nGET person";
    "MOVE 'Advanced Database' TO title IN course\nFIND ANY course USING title IN course\nGET course";
    "MOVE 'Hsiao' TO name IN person\nFIND ANY person USING name IN person\n\
     FIND FIRST employee WITHIN person_employee\nFIND FIRST faculty WITHIN employee_faculty\n\
     FIND FIRST student WITHIN advisor\nGET student\nFIND NEXT student WITHIN advisor";
    "MOVE 'Emdi' TO name IN person\nFIND ANY person USING name IN person\n\
     FIND FIRST student WITHIN person_student\nFIND OWNER WITHIN advisor\n\
     FIND CURRENT student WITHIN person_student\nDISCONNECT student FROM advisor\n\
     CONNECT student TO advisor -- back again\nGET name, ssn IN person";
    "MOVE 'Computer Science' TO major IN student\nFIND ANY student USING major IN student\n\
     FIND FIRST person WITHIN person_student\nPERFORM UNTIL EOF = 'YES'\nGET person\n\
     FIND NEXT person WITHIN person_student\nEND PERFORM";
    "MOVE 'Numerical Methods' TO title IN course; MOVE 3 TO credits IN course\nSTORE course\n\
     MODIFY credits IN course\nMODIFY course\nERASE course\nERASE ALL course";
    "FIND DUPLICATE WITHIN advisor USING major IN student\n\
     FIND student WITHIN advisor CURRENT USING major IN student\nFIND LAST student WITHIN advisor\n\
     FIND PRIOR student WITHIN advisor\nGET" ]

let daplex_corpus =
  [ "FOR EACH c IN course SUCH THAT title(c) = 'Advanced Database' PRINT title(c), semester(c) END";
    "FOR EACH s IN student SUCH THAT major(s) = 'CS' AND name(advisor(s)) = 'Hsiao' PRINT name(s), major(s) END";
    "CREATE course (title = 'Robotics', semester = 'Fall', credits = 4)";
    "CREATE student UNDER person 17 (major = 'History')";
    "DESTROY c IN course SUCH THAT title(c) = 'Robotics'";
    "FOR EACH s IN student SUCH THAT name(s) = 'Zawis' LET major(s) = 'Art' \
     INCLUDE advisor(s) THE f IN faculty SUCH THAT rank(f) = 'full' \
     EXCLUDE advisor(s) THE f IN faculty END; FOR EACH p IN person PRINT ssn(p) END" ]

let dli_corpus =
  [ "GU patient(pid = 17) visit(vdate = 'v1')\nREPL (cost = 99)";
    "GU patient(pid = 5)";
    "GU patient(pid = 5) visit(cost > 100)\nGN\nGN visit\nGNP visit\nGNP";
    "ISRT patient (pname = 'Doe', pid = 9)";
    "ISRT patient(pid = 9) visit (vdate = '6 JUL', cost = 50) -- a visit";
    "GU patient(pid = 9) visit(vdate = '6 JUL'); DLET";
    "ISRT patient (pname = 'pt1', pid = 33)\nISRT patient(pid = 33) visit (vdate = 'v1', cost = 1.5)" ]

let hierarchical_ddl_corpus =
  [ "DATABASE med\nSEGMENT patient (pname CHAR(20), pid INT)\n\
     SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)";
    "-- the medical schema\nDATABASE medical\nSEGMENT patient (pname CHARACTER 20, pid FIXED)\n\
     SEGMENT visit PARENT patient (vdate STRING(10), cost REAL) -- visits\n\
     SEGMENT treatment PARENT visit (drug CHAR(12))" ]

(* Damage: bytes cut, a stretch duplicated, bytes replaced by or spliced
   with a fragment: quotes and unterminated strings, integers past the
   [int] range, brackets, separators, operators, keywords, line breaks
   and characters no lexer accepts. *)
let fragments =
  [ "'"; "''"; "'open"; "("; ")"; ","; ";"; "|"; "<"; ">"; "="; "<>"; "!"; "+"; "-";
    "@"; "#"; "--"; "\n"; " "; "."; "99999999999999999999"; "-9223372036854775809";
    "4611686018427387904"; "1e"; "2.5e-3"; "NULL"; "AND"; "or"; "IN"; "END"; "BY";
    "PERFORM UNTIL EOF"; "END PERFORM"; "ISRT"; "x" ]

let damage text =
  let open QCheck2.Gen in
  let len = String.length text in
  let* at = int_range 0 len and* span = int_range 1 8 and* fragment = oneofl fragments in
  let upto = min len (at + span) in
  let before = String.sub text 0 at and after = String.sub text upto (len - upto) in
  oneofl
    [ before ^ after;
      before ^ String.sub text at (upto - at) ^ String.sub text at (len - at);
      before ^ fragment ^ after;
      before ^ fragment ^ String.sub text at (len - at) ]

let rec damaged n text =
  let open QCheck2.Gen in
  if n = 0 then pure text else damage text >>= damaged (n - 1)

(* One to three corpus texts joined by [sep], damaged up to three times;
   one in five is left whole. *)
let gen_text ?(sep = "\n") corpus =
  let open QCheck2.Gen in
  let* texts = list_size (int_range 1 3) (oneofl corpus) in
  let* n = frequency [ 1, pure 0; 4, int_range 1 3 ] in
  damaged n (String.concat sep texts)

(* --- each parser against the list-stream parser -------------------------- *)

let outcome f src =
  match f src with
  | parsed -> Ok parsed
  | exception Abdl.Syntax.Parse_error msg -> Error msg

(* The one message text the shared comparison changed: ABDL and Daplex
   said "relational operator" where SQL and DL/I said "comparison
   operator". *)
let renamed msg =
  let old = "expected relational operator" in
  let n = String.length old in
  if String.length msg >= n && String.equal (String.sub msg 0 n) old then
    "expected comparison operator" ^ String.sub msg n (String.length msg - n)
  else msg

(* The same parse (compared with [compare], so a NaN equals itself), or
   the same error. *)
let same ?(any_error = false) a b =
  match a, b with
  | Ok x, Ok y -> compare x y = 0
  | Error m, Error m' -> any_error || String.equal m (renamed m')
  | Ok _, Error _ | Error _, Ok _ -> false

let equivalence name ?(count = 1000) gen checks =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:Fun.id gen (fun src ->
         List.for_all (fun check -> check src) checks))

(* The ABDL parser now rejects an INSERT whose record names no file,
   which the list parser accepted and the store refused with
   [Invalid_argument], or names an attribute twice, which raised
   [Invalid_argument] out of the list parser: where the new parser reports
   one of these, the old one raised, parsed such an INSERT, or failed
   later in the text. *)
let insert_checks =
  [ "INSERT: an attribute is named twice"; "INSERT: no FILE keyword names a file" ]

let fileless = function
  | Abdl.Ast.Insert record -> Abdm.Record.file record = None
  | Abdl.Ast.Delete _ | Abdl.Ast.Update _ | Abdl.Ast.Retrieve _
  | Abdl.Ast.Retrieve_common _ -> false

let same_abdl requests parse old src =
  match outcome parse src with
  | Error msg when List.mem msg insert_checks ->
    (match old src with
    | parsed -> List.exists fileless (requests parsed)
    | exception Invalid_argument _ -> true
    | exception Abdl.Syntax.Parse_error _ -> true)
  | mine -> same mine (outcome old src)

let prop_abdl =
  let module O = Parse_oracle.Old_abdl in
  equivalence "ABDL parser on the cursor = list-stream parser" ~count:2000
    QCheck2.Gen.(oneof [ gen_text ~sep:"; " abdl_corpus; gen_text ~sep:" AND " abdl_queries ])
    [ same_abdl (fun r -> [ r ]) Abdl.Parser.request O.request;
      same_abdl Fun.id Abdl.Parser.transaction O.transaction;
      same_abdl (fun _ -> []) Abdl.Parser.query O.query ]

let prop_codasyl =
  let module O = Parse_oracle.Old_codasyl in
  equivalence "CODASYL-DML parser on the cursor = list-stream parser" (gen_text codasyl_corpus)
    [ (fun src -> same (outcome Codasyl_dml.Parser.program src) (outcome O.program src));
      (fun src -> same (outcome Codasyl_dml.Parser.stmt src) (outcome O.stmt src)) ]

let prop_daplex =
  let module O = Parse_oracle.Old_daplex in
  equivalence "Daplex-DML parser on the cursor = list-stream parser"
    (gen_text ~sep:" " daplex_corpus)
    [ (fun src -> same (outcome Daplex_dml.Parser.program src) (outcome O.program src));
      (fun src -> same (outcome Daplex_dml.Parser.stmt src) (outcome O.stmt src)) ]

(* ISRT reads its groups in one pass where the list parser looked for the
   last one first, so the two may report different errors: only the
   outcome is compared when the text holds one. [call] is given texts
   without [;], as [program] gives it: the old ISRT looked for its field
   list past a [;]. *)
let prop_dli =
  let module O = Parse_oracle.Old_dli in
  let has_isrt src =
    Daplex.Str_search.find (String.uppercase_ascii src) "ISRT" <> None
  in
  equivalence "DL/I parser on the cursor = list-stream parser" ~count:2000 (gen_text dli_corpus)
    [ (fun src ->
        same ~any_error:(has_isrt src)
          (outcome Hierarchical.Dli_parser.program src)
          (outcome O.program src));
      (fun src ->
        String.contains src ';'
        || same ~any_error:(has_isrt src)
             (outcome Hierarchical.Dli_parser.call src)
             (outcome O.call src)) ]

let prop_hierarchical_ddl =
  equivalence "hierarchical DDL parser on the cursor = list-stream parser"
    (gen_text hierarchical_ddl_corpus)
    [ (fun src ->
        same
          (outcome Hierarchical.Ddl_parser.schema src)
          (outcome Parse_oracle.Old_hierarchical_ddl.schema src)) ]

(* A whole ISRT as the old parser read it: the path, the target and its
   fields, and a qualification on every segment but the last. *)
let test_isrt_one_pass () =
  let isrt src =
    match Hierarchical.Dli_parser.call src with
    | Hierarchical.Dli_ast.Isrt { path; segment; fields } ->
      List.map (fun s -> s.Hierarchical.Dli_ast.ssa_segment) path, segment, fields
    | _ -> Alcotest.failf "%s: not an ISRT" src
  in
  Alcotest.(check bool) "qualified path, unqualified step, target" true
    (isrt "ISRT a (x = 1) b c (y = 2, z = 'q')"
     = ([ "a"; "b" ], "c", [ "y", Abdm.Value.Int 2; "z", Abdm.Value.Str "q" ]));
  let error src =
    match Hierarchical.Dli_parser.call src with
    | _ -> Alcotest.failf "%s: parsed" src
    | exception Hierarchical.Dli_parser.Parse_error msg -> msg
  in
  Alcotest.(check string) "no field list" "ISRT: missing field list"
    (error "ISRT a (x = 1) b");
  Alcotest.(check string) "a qualification is one comparison"
    "ISRT: a qualification holds one comparison" (error "ISRT a (x = 1, y = 2) b (z = 3)");
  Alcotest.(check string) "fields are assignments" "ISRT: expected =, got > in the field list"
    (error "ISRT a (x > 1)")

(* The error-order change, per language: the cursor lexes only as far
   as the parser reads, so a syntax error before a lexical error is the
   one reported, where the list parsers lexed the whole text first
   (SQL's case is in test_relational). *)
let syntax_error_first parse src expected () =
  Alcotest.check_raises "the list lexer stops at the open quote"
    (Abdl.Lexer.Lex_error "unterminated string literal") (fun () ->
      ignore (Parse_oracle.tokens src));
  match parse src with
  | () -> Alcotest.failf "%s parsed" src
  | exception Abdl.Syntax.Parse_error msg ->
    Alcotest.(check string) "the syntax error comes first" expected msg

let syntax_error_first_cases =
  [ "ABDL", (fun s -> ignore (Abdl.Parser.request s)),
    "RETRIEVE ((FILE = course)) title 'open", "expected (, got title";
    "CODASYL-DML", (fun s -> ignore (Codasyl_dml.Parser.program s)),
    "FIND ANY course title IN course 'open", "expected USING, got title";
    "Daplex-DML", (fun s -> ignore (Daplex_dml.Parser.program s)),
    "DESTROY c course 'open", "expected IN, got course";
    "DL/I", (fun s -> ignore (Hierarchical.Dli_parser.program s)),
    "GU patient(pid 5) 'open", "expected comparison operator, got 5";
    "hierarchical DDL", (fun s -> ignore (Hierarchical.Ddl_parser.schema s)),
    "DATABASE m SEGMENT p (pid INT) junk 'open", "unexpected junk in hierarchical DDL" ]

(* --- submit never raises --------------------------------------------------- *)

let system () =
  let t = Mlds.System.create () in
  let ok what = function
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  ok "uni"
    (Mlds.System.define_functional t ~name:"uni" ~ddl:Daplex.University.ddl
       Daplex.University.rows);
  ok "pay" (Mlds.System.define_relational t ~name:"pay");
  ok "med" (Mlds.System.define_hierarchical t ~name:"med" ~ddl:(List.hd hierarchical_ddl_corpus));
  let script language db src =
    match Mlds.System.open_session t language ~db with
    | Error msg -> Alcotest.failf "open %s: %s" db msg
    | Ok session -> ok src (Result.map ignore (Mlds.System.submit session src))
  in
  script Mlds.System.L_sql "pay"
    "CREATE TABLE acct (id INT UNIQUE, owner CHAR(20), balance INT, note CHAR(20));\n\
     INSERT INTO acct VALUES (1, 'o1', 10, 'n0'); INSERT INTO acct VALUES (2, 'o2', 20, 'n0')";
  script Mlds.System.L_dli "med"
    "ISRT patient (pname = 'pt', pid = 5)\nISRT patient(pid = 5) visit (vdate = 'v1', cost = 150)";
  t

(* [Mlds.System.submit] answers [Ok] or [Error] for any text in any of
   the five languages: no lexical error, [Not_found] or other exception
   escapes a parser or an engine. *)
let prop_submit_never_raises =
  let t = lazy (system ()) in
  let open QCheck2.Gen in
  let gen =
    oneof
      [ map (fun s -> Mlds.System.L_abdl, "uni", s) (gen_text ~sep:"; " abdl_corpus);
        map (fun s -> Mlds.System.L_abdl, "pay", s) (gen_text ~sep:"; " abdl_corpus);
        map (fun s -> Mlds.System.L_sql, "pay", s) (gen_text ~sep:"; " sql_corpus);
        map (fun s -> Mlds.System.L_codasyl, "uni", s) (gen_text codasyl_corpus);
        map (fun s -> Mlds.System.L_daplex, "uni", s) (gen_text ~sep:" " daplex_corpus);
        map (fun s -> Mlds.System.L_dli, "med", s) (gen_text dli_corpus) ]
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"submit never raises on damaged statements" ~count:1500
       ~print:(fun (l, db, s) ->
         Printf.sprintf "%s on %s: %S" (Mlds.System.language_to_string l) db s)
       gen
       (fun (language, db, src) ->
         match Mlds.System.open_session (Lazy.force t) language ~db with
         | Error msg -> QCheck2.Test.fail_reportf "open %s: %s" db msg
         | Ok session ->
           (match Mlds.System.submit session src with Ok _ | Error _ -> true)))

(* --- words a parse allocates ----------------------------------------------- *)

(* Minor words per parse of the benchmark's oltp-point statements, by
   language, as the statement cache's misses run them. Measured on
   OCaml 5.1, x86-64: ABDL 101, SQL 78, CODASYL-DML 373, Daplex-DML 145,
   DL/I 190.5; with the list-stream parsers of the parent tree put back
   (a token list built per statement, four lexes of every CODASYL line)
   ABDL reads 252.5, CODASYL-DML 1 275, Daplex-DML 329 and DL/I 287.5,
   and the list-stream SQL parser (test/parse_oracle.ml) 211.5. The
   bounds sit between. *)
let parse_words =
  [ "ABDL", (fun s -> ignore (Abdl.Parser.transaction s)), 150.,
    [ "RETRIEVE ((FILE = person) AND (ssn = 501234)) (name, ssn)";
      "UPDATE ((FILE = employee) AND (employee = 417)) (salary = 51234)" ];
    "SQL", (fun s -> ignore (Relational.Sql_parser.program s)), 110.,
    [ "SELECT id, owner, balance FROM acct WHERE id = 1234";
      "UPDATE acct SET note = 'w77' WHERE id = 2" ];
    "CODASYL-DML", (fun s -> ignore (Codasyl_dml.Parser.program s)), 600.,
    [ "MOVE 501234 TO ssn IN person\nFIND ANY person USING ssn IN person\nGET person" ];
    "Daplex-DML", (fun s -> ignore (Daplex_dml.Parser.program s)), 220.,
    [ "FOR EACH c IN course SUCH THAT title(c) = 'Advanced Database' PRINT title(c), semester(c) END" ];
    "DL/I", (fun s -> ignore (Hierarchical.Dli_parser.program s)), 240.,
    [ "GU patient(pid = 17)"; "GU patient(pid = 17) visit(vdate = 'v1')\nREPL (cost = 99)" ] ]

let words_per_parse parse texts =
  List.iter parse texts;
  let reps = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to reps do List.iter parse texts done;
  (Gc.minor_words () -. before) /. float_of_int (reps * List.length texts)

let test_parse_words () =
  List.iter
    (fun (language, parse, bound, texts) ->
      let words = words_per_parse parse texts in
      if words > bound then
        Alcotest.failf "%s: %.0f minor words a parse, bound %.0f" language words bound)
    parse_words

let suite =
  [
    prop_abdl;
    prop_codasyl;
    prop_daplex;
    prop_dli;
    prop_hierarchical_ddl;
    "ISRT in one pass", `Quick, test_isrt_one_pass;
    prop_submit_never_raises;
    "parse words per statement", `Quick, test_parse_words;
  ]
  @ List.map
      (fun (language, parse, src, expected) ->
        ( language ^ ": a syntax error before a lexical error", `Quick,
          syntax_error_first parse src expected ))
      syntax_error_first_cases


(* The paper's Chapter VI worked examples, run against the AB(functional)
   University database: CODASYL-DML transactions on a database that was
   defined in Daplex. Each statement's generated ABDL requests are shown —
   the one-to-many statement/request correspondence of §III.A. *)

let run session src =
  List.iter
    (fun stmt ->
      Printf.printf "DML> %s\n" (Codasyl_dml.Ast.to_string stmt);
      let result, issued =
        Mapping.Kernel.collect session.Codasyl_dml.Session.kernel (fun () ->
            Codasyl_dml.Engine.execute session stmt)
      in
      List.iter
        (fun request -> Printf.printf "     ABDL: %s\n" (Abdl.Ast.to_string request))
        issued;
      begin
        match result with
        | Ok outcome ->
          Printf.printf "     => %s\n" (Codasyl_dml.Engine.outcome_to_string outcome)
        | Error msg -> Printf.printf "     => ERROR: %s\n" msg
      end;
      print_newline ())
    (Codasyl_dml.Parser.program src)

let () =
  let kernel, transform, _keys = Mapping.Loader.university () in
  let session =
    Codasyl_dml.Session.create kernel (Mapping.Ab_schema.Fun transform)
  in

  print_endline "--- §VI.B.1: FIND ANY (the 'Advanced Database' example) ---";
  run session
    {|MOVE 'Advanced Database' TO title IN course
FIND ANY course USING title IN course
GET course|};

  print_endline "--- §VI.B.4: walking a set occurrence (students of an advisor) ---";
  run session
    {|MOVE 'Hsiao' TO name IN person
FIND ANY person USING name IN person
FIND OWNER WITHIN person_employee -- error: person owns that set; demo of abort
FIND FIRST employee WITHIN person_employee
FIND FIRST faculty WITHIN employee_faculty
FIND FIRST student WITHIN advisor
GET student
FIND NEXT student WITHIN advisor
GET student
FIND NEXT student WITHIN advisor|};

  print_endline "--- §VI.D/E: CONNECT and DISCONNECT on a Daplex-function set ---";
  run session
    {|MOVE 'Emdi' TO name IN person
FIND ANY person USING name IN person
FIND FIRST student WITHIN person_student
FIND OWNER WITHIN advisor
FIND CURRENT student WITHIN person_student
DISCONNECT student FROM advisor
GET student
-- establish the new owner occurrence of advisor (Hsiao's faculty record),
-- then re-find the student and connect it
MOVE 'Hsiao' TO name IN person
FIND ANY person USING name IN person
FIND FIRST employee WITHIN person_employee
FIND FIRST faculty WITHIN employee_faculty
MOVE 'Emdi' TO name IN person
FIND ANY person USING name IN person
FIND FIRST student WITHIN person_student
CONNECT student TO advisor
GET student|};

  print_endline
    "--- §VI.B.4's full worked transaction: CS students via PERFORM UNTIL EOF ---";
  run session
    {|MOVE 'Computer Science' TO major IN student
FIND ANY student USING major IN student
FIND FIRST person WITHIN person_student
PERFORM UNTIL EOF = 'YES'
GET person
FIND NEXT person WITHIN person_student
END PERFORM|};

  print_endline "--- §VI.F/G/H: MODIFY, STORE, ERASE ---";
  run session
    {|MOVE 'Numerical Methods' TO title IN course
MOVE 'Summer' TO semester IN course
MOVE 3 TO credits IN course
STORE course
GET course
MOVE 4 TO credits IN course
MODIFY credits IN course
GET course
ERASE course
STORE course -- storing it again is fine: the first was just erased
ERASE ALL course|}

(* The multi-lingual claim (paper §I.A): one MLDS serving databases in all
   four user data models, each through its model-based data language, plus
   the kernel language ABDL — and the same functional database answering
   both CODASYL-DML and Daplex transactions. *)

let submit t lang db src =
  match Mlds.System.open_handle t lang ~db with
  | Error msg -> failwith msg
  | Ok h ->
    let reply = Mlds.System.submit_handle h src in
    Mlds.System.close_handle h;
    match reply with
    | Ok out -> out
    | Error e -> failwith (Mlds.System.handle_error_to_string e)

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  let t = Mlds.System.create () in

  (* 1. A functional database, defined in Daplex. *)
  begin
    match
      Mlds.System.define_functional t ~name:"university"
        ~ddl:Daplex.University.ddl Daplex.University.rows
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;

  (* 2. A relational database, defined and populated in SQL. *)
  begin
    match Mlds.System.define_relational t ~name:"payroll" with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  ignore
    (submit t Mlds.System.L_sql "payroll"
       {|CREATE TABLE employee (name CHAR(25) UNIQUE, salary INT, dept CHAR(10));
INSERT INTO employee VALUES ('Hsiao', 72000, 'cs');
INSERT INTO employee VALUES ('Demurjian', 54000, 'cs');
INSERT INTO employee VALUES ('Lum', 68000, 'math')|});

  (* 3. A hierarchical database, populated through DL/I. *)
  begin
    match
      Mlds.System.define_hierarchical t ~name:"medical"
        ~ddl:
          {|DATABASE medical
SEGMENT patient (pname CHAR(20), pid INT)
SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)|}
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  ignore
    (submit t Mlds.System.L_dli "medical"
       {|ISRT patient (pname = 'Doe', pid = 1)
ISRT patient(pid = 1) visit (vdate = 'Jan', cost = 100)
ISRT patient(pid = 1) visit (vdate = 'Feb', cost = 250)|});

  (* 4. A native network database, populated through CODASYL-DML. *)
  begin
    match
      Mlds.System.define_network t ~name:"parts"
        ~ddl:
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
  SET SELECTION IS BY APPLICATION|}
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  ignore
    (submit t Mlds.System.L_codasyl "parts"
       {|MOVE 'Acme' TO sname IN supplier
STORE supplier
MOVE 'bolt' TO pname IN part
MOVE 5 TO weight IN part
STORE part
CONNECT part TO supplies|});

  banner "Databases registered in MLDS";
  List.iter
    (fun (name, model) -> Printf.printf "  %-12s %s\n" name model)
    (Mlds.System.databases t);

  banner "SQL on the relational database";
  print_endline
    (submit t Mlds.System.L_sql "payroll"
       "SELECT dept, AVG(salary) FROM employee GROUP BY dept");

  banner "DL/I on the hierarchical database";
  print_endline
    (submit t Mlds.System.L_dli "medical" "GU patient(pid = 1) visit(cost > 200)");

  banner "CODASYL-DML on the network database";
  print_endline
    (submit t Mlds.System.L_codasyl "parts"
       {|MOVE 'bolt' TO pname IN part
FIND ANY part USING pname IN part
FIND OWNER WITHIN supplies
GET supplier|});

  banner "Daplex on the functional database";
  print_endline
    (submit t Mlds.System.L_daplex "university"
       "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT name(s), name(advisor(s)) END");

  banner "CODASYL-DML on the SAME functional database (the thesis's interface)";
  print_endline
    (submit t Mlds.System.L_codasyl "university"
       {|MOVE 'Coker' TO name IN person
FIND ANY person USING name IN person
FIND FIRST student WITHIN person_student
GET student
FIND OWNER WITHIN advisor|});

  banner "ABDL (the kernel language) on the functional database";
  print_endline
    (submit t Mlds.System.L_abdl "university"
       "RETRIEVE ((FILE = student)) (COUNT(student)) BY major");

  banner "Toward MMDS: read-only SQL on the HIERARCHICAL database";
  print_endline
    (submit t Mlds.System.L_sql "medical"
       "SELECT pname, vdate, cost FROM visit, patient WHERE visit.patient = patient.patient");

  banner "Toward MMDS: read-only SQL on the FUNCTIONAL database";
  print_endline
    (submit t Mlds.System.L_sql "university"
       "SELECT name, major FROM student, person WHERE person_student = person.person")

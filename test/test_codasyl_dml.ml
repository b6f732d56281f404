(* Tests for the CODASYL-DML language interface: parser, and the Chapter VI
   statement translations executed against the AB(functional) University
   database. *)

let fresh_session ?backends () =
  let kernel, transform, keys = Mapping.Loader.university ?backends () in
  let session =
    Codasyl_dml.Session.create kernel (Mapping.Ab_schema.Fun transform)
  in
  session, keys

let key keys type_name row_key =
  match Mapping.Loader.find_key keys ~type_name ~row_key with
  | Some k -> k
  | None -> Alcotest.failf "no key for %s/%s" type_name row_key

let exec session src =
  Codasyl_dml.Engine.execute session (Codasyl_dml.Parser.stmt src)

let expect_found session src =
  match exec session src with
  | Ok (Codasyl_dml.Engine.Found f) -> f.dbkey
  | Ok o -> Alcotest.failf "%s: expected Found, got %s" src (Codasyl_dml.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

let expect_eos session src =
  match exec session src with
  | Ok Codasyl_dml.Engine.End_of_set -> ()
  | Ok o -> Alcotest.failf "%s: expected end of set, got %s" src (Codasyl_dml.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

let expect_ok session src =
  match exec session src with
  | Ok o -> o
  | Error msg -> Alcotest.failf "%s: %s" src msg

let expect_error session src =
  match exec session src with
  | Ok o -> Alcotest.failf "%s: expected error, got %s" src (Codasyl_dml.Engine.outcome_to_string o)
  | Error msg -> msg

let run_all session srcs = List.iter (fun src -> ignore (expect_ok session src)) srcs

(* --- parser -------------------------------------------------------------- *)

let test_parser_forms () =
  let p src = Codasyl_dml.Ast.to_string (Codasyl_dml.Parser.stmt src) in
  Alcotest.(check string) "move" "MOVE 'DB' TO title IN course"
    (p "MOVE 'DB' TO title IN course");
  Alcotest.(check string) "find any" "FIND ANY course USING title, semester IN course"
    (p "FIND ANY course USING title, semester IN course");
  Alcotest.(check string) "find current" "FIND CURRENT student WITHIN person_student"
    (p "find current student within person_student");
  Alcotest.(check string) "find duplicate"
    "FIND DUPLICATE WITHIN teaching USING title IN course"
    (p "FIND DUPLICATE WITHIN teaching USING title IN course");
  Alcotest.(check string) "find first" "FIND FIRST student WITHIN advisor"
    (p "FIND FIRST student WITHIN advisor");
  Alcotest.(check string) "find owner" "FIND OWNER WITHIN advisor"
    (p "FIND OWNER WITHIN advisor");
  Alcotest.(check string) "find within current"
    "FIND course WITHIN offers CURRENT USING title IN course"
    (p "FIND course WITHIN offers CURRENT USING title IN course");
  Alcotest.(check string) "get bare" "GET" (p "GET");
  Alcotest.(check string) "get record" "GET course" (p "GET course");
  Alcotest.(check string) "get items" "GET title, credits IN course"
    (p "GET title, credits IN course");
  Alcotest.(check string) "store" "STORE course" (p "STORE course");
  Alcotest.(check string) "connect" "CONNECT student TO advisor"
    (p "CONNECT student TO advisor");
  Alcotest.(check string) "disconnect two sets" "DISCONNECT x FROM a, b"
    (p "DISCONNECT x FROM a, b");
  Alcotest.(check string) "modify record" "MODIFY course" (p "MODIFY course");
  Alcotest.(check string) "modify items" "MODIFY credits IN course"
    (p "MODIFY credits IN course");
  Alcotest.(check string) "erase" "ERASE course" (p "ERASE course");
  Alcotest.(check string) "erase all" "ERASE ALL course" (p "ERASE ALL course")

let test_parser_errors () =
  let bad src =
    match Codasyl_dml.Parser.stmt src with
    | exception Codasyl_dml.Parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unknown verb" true (bad "FROBNICATE x");
  Alcotest.(check bool) "find any mismatched record" true
    (bad "FIND ANY course USING title IN student");
  Alcotest.(check bool) "move missing IN" true (bad "MOVE 1 TO x");
  Alcotest.(check bool) "trailing junk" true (bad "GET course extra")

let test_parser_program () =
  let stmts =
    Codasyl_dml.Parser.program
      "MOVE 1 TO x IN r -- comment\n\nGET r; STORE r\n-- whole line comment\n"
  in
  Alcotest.(check int) "three statements" 3 (List.length stmts)

(* --- FIND ------------------------------------------------------------------ *)

let test_find_any_and_translation () =
  let session, keys = fresh_session () in
  ignore (expect_ok session "MOVE 'Advanced Database' TO title IN course");
  let dbkey, log =
    Mapping.Kernel.collect session.Codasyl_dml.Session.kernel (fun () ->
        expect_found session "FIND ANY course USING title IN course")
  in
  Alcotest.(check int) "finds c1" (key keys "course" "c1") dbkey;
  match log with
  | [ request ] ->
    Alcotest.(check string) "generated RETRIEVE"
      "RETRIEVE ((FILE = 'course') AND (title = 'Advanced Database')) (ALL)"
      (Abdl.Ast.to_string request)
  | log -> Alcotest.failf "expected 1 request, got %d" (List.length log)

let test_find_any_not_found () =
  let session, _ = fresh_session () in
  ignore (expect_ok session "MOVE 'Underwater Basket Weaving' TO title IN course");
  expect_eos session "FIND ANY course USING title IN course"

let test_find_any_requires_uwa () =
  let session, _ = fresh_session () in
  let msg = expect_error session "FIND ANY course USING title IN course" in
  Alcotest.(check bool) "mentions work area" true
    (Daplex.Str_search.find msg "work area" <> None)

let test_find_first_next_prior_last () =
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST employee WITHIN person_employee";
      "FIND FIRST faculty WITHIN employee_faculty" ];
  let st1 = key keys "student" "st1" in
  let st2 = key keys "student" "st2" in
  let first = expect_found session "FIND FIRST student WITHIN advisor" in
  Alcotest.(check int) "first is st1" st1 first;
  let next = expect_found session "FIND NEXT student WITHIN advisor" in
  Alcotest.(check int) "next is st2" st2 next;
  expect_eos session "FIND NEXT student WITHIN advisor";
  let prior = expect_found session "FIND PRIOR student WITHIN advisor" in
  Alcotest.(check int) "prior back to st1" st1 prior;
  let last = expect_found session "FIND LAST student WITHIN advisor" in
  Alcotest.(check int) "last is st2" st2 last

let test_find_next_requires_buffer () =
  let session, _ = fresh_session () in
  let msg = expect_error session "FIND NEXT student WITHIN advisor" in
  Alcotest.(check bool) "asks for FIND FIRST" true
    (Daplex.Str_search.find msg "FIND FIRST" <> None)

let test_find_system_set_iteration () =
  let session, _ = fresh_session () in
  (* system-owned sets iterate the whole file, no owner needed *)
  let _ = expect_found session "FIND FIRST course WITHIN system_course" in
  let count = ref 1 in
  let rec loop () =
    match exec session "FIND NEXT course WITHIN system_course" with
    | Ok (Codasyl_dml.Engine.Found _) ->
      incr count;
      loop ()
    | Ok Codasyl_dml.Engine.End_of_set -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  in
  loop ();
  Alcotest.(check int) "all 12 courses" 12 !count

let test_find_owner () =
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person" ];
  let _ = expect_found session "FIND FIRST student WITHIN person_student" in
  let owner = expect_found session "FIND OWNER WITHIN advisor" in
  Alcotest.(check int) "advisor is f1" (key keys "faculty" "f1") owner;
  (* owner of a SYSTEM set is an error *)
  let msg = expect_error session "FIND OWNER WITHIN system_person" in
  Alcotest.(check bool) "SYSTEM owner rejected" true
    (Daplex.Str_search.find msg "SYSTEM" <> None)

let test_find_owner_direction_iteration () =
  (* the paper's FIND FIRST person WITHIN person_student: iterate owners *)
  let session, _ = fresh_session () in
  let _ = expect_found session "FIND FIRST person WITHIN person_student" in
  let count = ref 1 in
  let rec loop () =
    match exec session "FIND NEXT person WITHIN person_student" with
    | Ok (Codasyl_dml.Engine.Found f) ->
      Alcotest.(check string) "type is person" "person" f.record_type;
      incr count;
      loop ()
    | Ok Codasyl_dml.Engine.End_of_set -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  in
  loop ();
  Alcotest.(check int) "six student-persons" 6 !count

let test_find_current_and_duplicate () =
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Advanced Database' TO title IN course";
      "FIND ANY course USING title IN course" ];
  (* populate the system_course buffer, then look for the duplicate title *)
  let c1 = key keys "course" "c1" in
  let c4 = key keys "course" "c4" in
  let first = expect_found session "FIND FIRST course WITHIN system_course" in
  Alcotest.(check int) "first course is c1" c1 first;
  let dup = expect_found session "FIND DUPLICATE WITHIN system_course USING title IN course" in
  Alcotest.(check int) "duplicate title at c4" c4 dup;
  expect_eos session "FIND DUPLICATE WITHIN system_course USING title IN course";
  (* FIND CURRENT re-establishes the run-unit from set currency after the
     run-unit moved to a different record type *)
  run_all session
    [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person" ];
  let back = expect_found session "FIND CURRENT course WITHIN system_course" in
  Alcotest.(check int) "current of set restored" c4 back

let test_find_within_current () =
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Computer Science' TO dname IN department";
      "FIND ANY department USING dname IN department";
      "MOVE 'Operating Systems' TO title IN course" ];
  let found = expect_found session "FIND course WITHIN offers CURRENT USING title IN course" in
  Alcotest.(check int) "c2 within d1's offers" (key keys "course" "c2") found;
  (* a course d1 does not offer *)
  ignore (expect_ok session "MOVE 'Calculus' TO title IN course");
  expect_eos session "FIND course WITHIN offers CURRENT USING title IN course"

(* --- GET ------------------------------------------------------------------- *)

let test_get_variants () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Compilers' TO title IN course"; "FIND ANY course USING title IN course" ];
  begin
    match expect_ok session "GET" with
    | Codasyl_dml.Engine.Got values ->
      Alcotest.(check bool) "has title" true
        (List.assoc_opt "title" values = Some (Abdm.Value.Str "Compilers"))
    | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
  end;
  begin
    match expect_ok session "GET course" with
    | Codasyl_dml.Engine.Got values ->
      Alcotest.(check bool) "has credits" true
        (List.assoc_opt "credits" values = Some (Abdm.Value.Int 4))
    | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
  end;
  begin
    match expect_ok session "GET title, credits IN course" with
    | Codasyl_dml.Engine.Got values ->
      Alcotest.(check int) "only requested items" 2 (List.length values)
    | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
  end;
  (* wrong record type *)
  let msg = expect_error session "GET student" in
  Alcotest.(check bool) "type mismatch" true
    (Daplex.Str_search.find msg "not a" <> None)

let test_get_requires_run_unit () =
  let session, _ = fresh_session () in
  let msg = expect_error session "GET" in
  Alcotest.(check bool) "null run-unit" true
    (Daplex.Str_search.find msg "null" <> None)

(* --- STORE ------------------------------------------------------------------ *)

let test_store_course () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Robotics' TO title IN course"; "MOVE 'Fall' TO semester IN course";
      "MOVE 4 TO credits IN course" ];
  match expect_ok session "STORE course" with
  | Codasyl_dml.Engine.Stored { dbkey } ->
    begin
      match Mapping.Kernel.get session.Codasyl_dml.Session.kernel dbkey with
      | Some r ->
        Alcotest.(check bool) "key fixed to dbkey" true
          (Abdm.Record.value_of r "course" = Some (Abdm.Value.Int dbkey));
        Alcotest.(check bool) "title stored" true
          (Abdm.Record.value_of r "title" = Some (Abdm.Value.Str "Robotics"))
      | None -> Alcotest.fail "stored record missing"
    end
  | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)

let test_store_duplicate_rejected () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Advanced Database' TO title IN course";
      "MOVE 'Spring' TO semester IN course"; "MOVE 4 TO credits IN course" ];
  let msg = expect_error session "STORE course" in
  Alcotest.(check bool) "duplicates refused" true
    (Daplex.Str_search.find msg "DUPLICATES" <> None);
  (* same title in a new semester is fine: UNIQUE title, semester *)
  ignore (expect_ok session "MOVE 'Summer' TO semester IN course");
  match expect_ok session "STORE course" with
  | Codasyl_dml.Engine.Stored _ -> ()
  | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)

let test_store_subtype_requires_isa_currency () =
  let session, _ = fresh_session () in
  ignore (expect_ok session "MOVE 'History' TO major IN student");
  let msg = expect_error session "STORE student" in
  Alcotest.(check bool) "needs current owner" true
    (Daplex.Str_search.find msg "BY APPLICATION" <> None)

let test_store_subtype_with_isa () =
  let session, _keys = fresh_session () in
  (* a brand-new person, so no terminal subtype can conflict *)
  run_all session
    [ "MOVE 'Newcomer' TO name IN person"; "MOVE 444556666 TO ssn IN person";
      "STORE person"; "MOVE 'History' TO major IN student" ];
  let person_key =
    match Network.Currency.run_unit session.Codasyl_dml.Session.cit with
    | Some e -> e.cur_dbkey
    | None -> Alcotest.fail "no current person"
  in
  match expect_ok session "STORE student" with
  | Codasyl_dml.Engine.Stored { dbkey } ->
    begin
      match Mapping.Kernel.get session.Codasyl_dml.Session.kernel dbkey with
      | Some r ->
        Alcotest.(check bool) "ISA reference filled" true
          (Abdm.Record.value_of r "person_student"
           = Some (Abdm.Value.Int person_key))
      | None -> Alcotest.fail "stored student missing"
    end
  | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)

let test_store_overlap_enforced () =
  let session, _ = fresh_session () in
  (* p10 (Coker) is already a student; student/faculty are disjoint
     subtype hierarchies sharing ancestor person *)
  run_all session
    [ "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person";
      "MOVE 30000 TO salary IN employee" ];
  match expect_ok session "STORE employee" with
  (* employee and student DO share ancestor person and are NOT declared
     overlapping... but employee is not terminal, so the constraint bites
     on terminal siblings only when declared. Check the declared case: *)
  | Codasyl_dml.Engine.Stored _ ->
    (* support_staff overlaps student by declaration: allowed *)
    run_all session [ "MOVE 40 TO hours IN support_staff" ];
    begin
      match expect_ok session "STORE support_staff" with
      | Codasyl_dml.Engine.Stored _ -> ()
      | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
    end
  | o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)

let test_store_overlap_violation () =
  let session, _ = fresh_session () in
  (* Hsiao (p1) is an employee and a faculty; storing a student for p1
     must fail: student/faculty disjoint (no overlap declared), sharing
     ancestor person. *)
  run_all session
    [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person";
      "MOVE 'CS' TO major IN student" ];
  let msg = expect_error session "STORE student" in
  Alcotest.(check bool) "overlap violation" true
    (Daplex.Str_search.find msg "overlap" <> None)

(* --- CONNECT / DISCONNECT ----------------------------------------------------- *)

let test_connect_member_held () =
  let session, keys = fresh_session () in
  run_all session
    [
      (* detach Wortherly's student record st4 from its advisor: finding
         st4 makes its own advisor occurrence (f3's) current, which is
         exactly the occurrence DISCONNECT must target *)
      "MOVE 'Wortherly' TO name IN person";
      "FIND ANY person USING name IN person";
      "FIND FIRST student WITHIN person_student";
      "DISCONNECT student FROM advisor";
      (* establish the new owner occurrence: Demurjian's faculty record f2 *)
      "MOVE 'Demurjian' TO name IN person";
      "FIND ANY person USING name IN person";
      "FIND FIRST employee WITHIN person_employee";
      "FIND FIRST faculty WITHIN employee_faculty";
      (* re-find st4: its advisor reference is now null, so the f2
         occurrence stays current, and CONNECT attaches to it *)
      "MOVE 'Wortherly' TO name IN person";
      "FIND ANY person USING name IN person";
      "FIND FIRST student WITHIN person_student";
      "CONNECT student TO advisor";
    ];
  let st4 = key keys "student" "st4" in
  match Mapping.Kernel.get session.Codasyl_dml.Session.kernel st4 with
  | Some r ->
    Alcotest.(check bool) "advisor now f2" true
      (Abdm.Record.value_of r "advisor"
       = Some (Abdm.Value.Int (key keys "faculty" "f2")))
  | None -> Alcotest.fail "st4 missing"

let test_connect_automatic_rejected () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person" ];
  let _ = expect_found session "FIND FIRST student WITHIN person_student" in
  let msg = expect_error session "CONNECT student TO person_student" in
  Alcotest.(check bool) "automatic insertion refused" true
    (Daplex.Str_search.find msg "AUTOMATIC" <> None)

let test_connect_owner_held_null_then_duplicate () =
  let session, keys = fresh_session () in
  (* Stored a brand-new department (offers null), connect two courses. *)
  run_all session
    [ "MOVE 'Electrical Engineering' TO dname IN department";
      "MOVE 'Bullard' TO building IN department"; "STORE department" ];
  let d_new =
    match Network.Currency.run_unit session.Codasyl_dml.Session.cit with
    | Some e -> e.cur_dbkey
    | None -> Alcotest.fail "no current department"
  in
  run_all session
    [ "MOVE 'Mechanics' TO title IN course"; "FIND ANY course USING title IN course";
      "CONNECT course TO offers" ];
  let copies kernel =
    Mapping.Kernel.select kernel
      (Abdl.Parser.query (Printf.sprintf "(FILE = department) AND (department = %d)" d_new))
  in
  Alcotest.(check int) "null copy updated in place" 1
    (List.length (copies session.Codasyl_dml.Session.kernel));
  (* connecting a second course must duplicate the owner record *)
  run_all session
    [ "MOVE 'Electromagnetism' TO title IN course";
      "FIND ANY course USING title IN course";
      (* re-establish offers owner currency on the new department *)
      "MOVE 'Electrical Engineering' TO dname IN department";
      "FIND ANY department USING dname IN department";
      "MOVE 'Electromagnetism' TO title IN course";
      "FIND ANY course USING title IN course";
      "CONNECT course TO offers" ];
  let after = copies session.Codasyl_dml.Session.kernel in
  Alcotest.(check int) "owner duplicated" 2 (List.length after);
  let offered =
    List.filter_map
      (fun (_, r) ->
        match Abdm.Record.value_of r "offers" with
        | Some (Abdm.Value.Int k) -> Some k
        | _ -> None)
      after
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "both courses offered"
    (List.sort compare [ key keys "course" "c8"; key keys "course" "c9" ])
    offered

let test_disconnect_owner_held () =
  let session, keys = fresh_session () in
  let d1 = key keys "department" "d1" in
  run_all session
    [ "MOVE 'Computer Science' TO dname IN department";
      "FIND ANY department USING dname IN department";
      "MOVE 'Compilers' TO title IN course"; "FIND ANY course USING title IN course";
      "DISCONNECT course FROM offers" ];
  let copies =
    Mapping.Kernel.select session.Codasyl_dml.Session.kernel
      (Abdl.Parser.query (Printf.sprintf "(FILE = department) AND (department = %d)" d1))
  in
  (* multi-member set: the copy referencing c3 is deleted *)
  Alcotest.(check int) "one copy deleted" 3 (List.length copies);
  let c3 = key keys "course" "c3" in
  Alcotest.(check bool) "no copy references c3" true
    (List.for_all
       (fun (_, r) -> Abdm.Record.value_of r "offers" <> Some (Abdm.Value.Int c3))
       copies)

let test_disconnect_fixed_retention_rejected () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person" ];
  let _ = expect_found session "FIND FIRST student WITHIN person_student" in
  let msg = expect_error session "DISCONNECT student FROM person_student" in
  Alcotest.(check bool) "fixed retention refused" true
    (Daplex.Str_search.find msg "FIXED" <> None)

(* --- MODIFY ------------------------------------------------------------------- *)

let test_modify_items () =
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Simulation' TO title IN course"; "FIND ANY course USING title IN course";
      "MOVE 5 TO credits IN course"; "MODIFY credits IN course" ];
  let c12 = key keys "course" "c12" in
  match Mapping.Kernel.get session.Codasyl_dml.Session.kernel c12 with
  | Some r ->
    Alcotest.(check bool) "credits updated" true
      (Abdm.Record.value_of r "credits" = Some (Abdm.Value.Int 5))
  | None -> Alcotest.fail "c12 missing"

let test_modify_key_attr_rejected () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Simulation' TO title IN course"; "FIND ANY course USING title IN course";
      "MOVE 999 TO course IN course" ];
  let msg = expect_error session "MODIFY course IN course" in
  Alcotest.(check bool) "key attr protected" true
    (Daplex.Str_search.find msg "key" <> None)

let test_modify_generates_one_update_per_item () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Simulation' TO title IN course"; "FIND ANY course USING title IN course";
      "MOVE 'Queueing' TO title IN course"; "MOVE 2 TO credits IN course" ];
  let _, log =
    Mapping.Kernel.collect session.Codasyl_dml.Session.kernel (fun () ->
        ignore (expect_ok session "MODIFY title, credits IN course"))
  in
  let updates =
    List.filter
      (fun r -> match r with Abdl.Ast.Update _ -> true | _ -> false)
      log
  in
  Alcotest.(check int) "one UPDATE per item (§VI.F)" 2 (List.length updates)

(* --- ERASE -------------------------------------------------------------------- *)

let test_erase_referenced_rejected () =
  let session, _ = fresh_session () in
  (* c1 is offered by d1 and taught by f1: both constraints bite *)
  run_all session
    [ "MOVE 'Compilers' TO title IN course"; "FIND ANY course USING title IN course" ];
  let msg = expect_error session "ERASE course" in
  Alcotest.(check bool) "reference blocks erase" true
    (Daplex.Str_search.find msg "ERASE" <> None)

let test_erase_fresh_record () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Ephemeral' TO title IN course"; "MOVE 'Fall' TO semester IN course";
      "MOVE 1 TO credits IN course"; "STORE course"; "ERASE course" ];
  ignore (expect_ok session "MOVE 'Ephemeral' TO title IN course");
  expect_eos session "FIND ANY course USING title IN course";
  (* currency must not dangle *)
  let msg = expect_error session "GET" in
  Alcotest.(check bool) "run-unit nulled" true
    (Daplex.Str_search.find msg "null" <> None)

let test_erase_all_rejected () =
  let session, _ = fresh_session () in
  let msg = expect_error session "ERASE ALL course" in
  Alcotest.(check bool) "not translated" true
    (Daplex.Str_search.find msg "not translated" <> None)

(* --- against MBDS -------------------------------------------------------------- *)

let test_full_flow_on_mbds () =
  let session, keys = fresh_session ~backends:4 () in
  run_all session
    [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST employee WITHIN person_employee";
      "FIND FIRST faculty WITHIN employee_faculty" ];
  let first = expect_found session "FIND FIRST student WITHIN advisor" in
  Alcotest.(check int) "same navigation on 4 backends"
    (key keys "student" "st1") first

let suite =
  [
    "parser forms", `Quick, test_parser_forms;
    "parser errors", `Quick, test_parser_errors;
    "parser program", `Quick, test_parser_program;
    "FIND ANY + translation", `Quick, test_find_any_and_translation;
    "FIND ANY not found", `Quick, test_find_any_not_found;
    "FIND ANY requires UWA", `Quick, test_find_any_requires_uwa;
    "FIND FIRST/NEXT/PRIOR/LAST", `Quick, test_find_first_next_prior_last;
    "FIND NEXT requires buffer", `Quick, test_find_next_requires_buffer;
    "FIND over system set", `Quick, test_find_system_set_iteration;
    "FIND OWNER", `Quick, test_find_owner;
    "FIND owner-direction iteration", `Quick, test_find_owner_direction_iteration;
    "FIND CURRENT and DUPLICATE", `Quick, test_find_current_and_duplicate;
    "FIND WITHIN CURRENT", `Quick, test_find_within_current;
    "GET variants", `Quick, test_get_variants;
    "GET requires run-unit", `Quick, test_get_requires_run_unit;
    "STORE course", `Quick, test_store_course;
    "STORE duplicate rejected", `Quick, test_store_duplicate_rejected;
    "STORE subtype requires ISA currency", `Quick, test_store_subtype_requires_isa_currency;
    "STORE subtype with ISA", `Quick, test_store_subtype_with_isa;
    "STORE overlap allowed when declared", `Quick, test_store_overlap_enforced;
    "STORE overlap violation", `Quick, test_store_overlap_violation;
    "CONNECT member-held", `Quick, test_connect_member_held;
    "CONNECT automatic rejected", `Quick, test_connect_automatic_rejected;
    "CONNECT owner-held null/duplicate", `Quick, test_connect_owner_held_null_then_duplicate;
    "DISCONNECT owner-held", `Quick, test_disconnect_owner_held;
    "DISCONNECT fixed retention rejected", `Quick, test_disconnect_fixed_retention_rejected;
    "MODIFY items", `Quick, test_modify_items;
    "MODIFY key attr rejected", `Quick, test_modify_key_attr_rejected;
    "MODIFY one UPDATE per item", `Quick, test_modify_generates_one_update_per_item;
    "ERASE referenced rejected", `Quick, test_erase_referenced_rejected;
    "ERASE fresh record", `Quick, test_erase_fresh_record;
    "ERASE ALL rejected", `Quick, test_erase_all_rejected;
    "full flow on MBDS", `Quick, test_full_flow_on_mbds;
  ]

(* --- multi-set CONNECT atomicity ------------------------------------------- *)

let test_connect_multi_set_atomic () =
  let session, keys = fresh_session () in
  (* establish run-unit = st4 and advisor owner = its current advisor f3;
     person_student is AUTOMATIC so CONNECT to it must fail — and the
     preceding advisor re-connect must be rolled back *)
  run_all session
    [ "MOVE 'Wortherly' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST student WITHIN person_student"; "DISCONNECT student FROM advisor";
      "MOVE 'Demurjian' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST employee WITHIN person_employee";
      "FIND FIRST faculty WITHIN employee_faculty";
      "MOVE 'Wortherly' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST student WITHIN person_student" ];
  let msg = expect_error session "CONNECT student TO advisor, person_student" in
  Alcotest.(check bool) "aborted on the automatic set" true
    (Daplex.Str_search.find msg "AUTOMATIC" <> None);
  let st4 = key keys "student" "st4" in
  match Mapping.Kernel.get session.Codasyl_dml.Session.kernel st4 with
  | Some r ->
    Alcotest.(check bool) "advisor connect rolled back" true
      (Abdm.Record.value_of r "advisor" = Some Abdm.Value.Null)
  | None -> Alcotest.fail "st4 missing"

let test_transaction_rollback_on_mbds () =
  let kernel = Mapping.Kernel.multi 3 in
  let record i =
    Abdm.Record.make
      [ Abdm.Keyword.file "f"; Abdm.Keyword.make "x" (Abdm.Value.Int i) ]
  in
  List.iter (fun i -> ignore (Mapping.Kernel.insert kernel (record i))) [ 1; 2; 3 ];
  let before = Mapping.Kernel.size kernel in
  let result =
    Mapping.Kernel.atomically kernel (fun () ->
        ignore (Mapping.Kernel.insert kernel (record 4));
        ignore (Mapping.Kernel.delete kernel (Abdl.Parser.query "(FILE = f) AND (x = 1)"));
        Error "abort")
  in
  Alcotest.(check bool) "error propagated" true (result = Error "abort");
  Alcotest.(check int) "size restored across backends" before
    (Mapping.Kernel.size kernel)

let suite =
  suite
  @ [
      "CONNECT multi-set atomicity", `Quick, test_connect_multi_set_atomic;
      "kernel rollback on MBDS", `Quick, test_transaction_rollback_on_mbds;
    ]

(* --- random DML walks keep the AB(functional) database consistent ---------- *)

(* Referential integrity of the stored representation: every set-reference
   attribute is NULL or names a live entity of the related record type. *)
let referentially_consistent (session : Codasyl_dml.Session.t) transform =
  let kernel = session.Codasyl_dml.Session.kernel in
  let live type_name key =
    Mapping.Kernel.select kernel
      (Abdm.Query.conj
         [ Abdm.Predicate.file_eq type_name;
           Abdm.Predicate.make type_name Abdm.Predicate.Eq (Abdm.Value.Int key) ])
    <> []
  in
  let net = transform.Transformer.Transform.net in
  List.for_all
    (fun (s : Network.Types.set_type) ->
      match Transformer.Transform.origin_of_set transform s.set_name with
      | Some Transformer.Transform.O_system -> true
      | Some Transformer.Transform.O_isa
      | Some (Transformer.Transform.O_function_member _)
      | Some (Transformer.Transform.O_link _) ->
        (* reference lives in the member record, names the owner *)
        Mapping.Kernel.select kernel
          (Abdm.Query.conj [ Abdm.Predicate.file_eq s.set_member ])
        |> List.for_all (fun (_, r) ->
               match Abdm.Record.value_of r s.set_name with
               | Some (Abdm.Value.Int k) -> live s.set_owner k
               | Some Abdm.Value.Null | None -> true
               | Some _ -> false)
      | Some (Transformer.Transform.O_function_owner _) ->
        (* reference lives in the owner record, names the member *)
        Mapping.Kernel.select kernel
          (Abdm.Query.conj [ Abdm.Predicate.file_eq s.set_owner ])
        |> List.for_all (fun (_, r) ->
               match Abdm.Record.value_of r s.set_name with
               | Some (Abdm.Value.Int k) -> live s.set_member k
               | Some Abdm.Value.Null | None -> true
               | Some _ -> false)
      | None -> true)
    net.Network.Schema.sets

let dml_statement_pool =
  [|
    "MOVE 'Advanced Database' TO title IN course";
    "MOVE 'Robotics' TO title IN course";
    "MOVE 'Fall' TO semester IN course";
    "MOVE 'Spring' TO semester IN course";
    "MOVE 3 TO credits IN course";
    "MOVE 'Hsiao' TO name IN person";
    "MOVE 'Coker' TO name IN person";
    "MOVE 'Newbie' TO name IN person";
    "MOVE 987654321 TO ssn IN person";
    "MOVE 'History' TO major IN student";
    "FIND ANY course USING title IN course";
    "FIND ANY person USING name IN person";
    "FIND FIRST student WITHIN person_student";
    "FIND FIRST employee WITHIN person_employee";
    "FIND FIRST faculty WITHIN employee_faculty";
    "FIND FIRST course WITHIN system_course";
    "FIND NEXT course WITHIN system_course";
    "FIND FIRST student WITHIN advisor";
    "FIND OWNER WITHIN advisor";
    "FIND OWNER WITHIN person_student";
    "GET";
    "STORE course";
    "STORE person";
    "STORE student";
    "MODIFY credits IN course";
    "CONNECT student TO advisor";
    "DISCONNECT student FROM advisor";
    "CONNECT course TO offers";
    "DISCONNECT course FROM offers";
    "ERASE course";
    "ERASE student";
  |]

let prop_random_dml_walk =
  QCheck2.Test.make
    ~name:"random CODASYL-DML walks keep referential integrity" ~count:40
    QCheck2.Gen.(list_size (int_range 5 40) (int_range 0 (Array.length dml_statement_pool - 1)))
    (fun picks ->
      let kernel, transform, _ = Mapping.Loader.university () in
      let session =
        Codasyl_dml.Session.create kernel (Mapping.Ab_schema.Fun transform)
      in
      List.iter
        (fun i ->
          let src = dml_statement_pool.(i) in
          match
            Codasyl_dml.Engine.execute session (Codasyl_dml.Parser.stmt src)
          with
          | Ok _ | Error _ -> ())
        picks;
      referentially_consistent session transform)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_random_dml_walk ]

let test_erase_supertype_blocked_by_subtype () =
  (* a person with a student record owns a non-empty ISA occurrence *)
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person" ];
  let msg = expect_error session "ERASE person" in
  Alcotest.(check bool) "ISA occurrence blocks erase" true
    (Daplex.Str_search.find msg "non-empty" <> None)

let test_erase_leaf_subtype_ok () =
  (* a support_staff record is a leaf: disconnect its supervisor set
     reference is not needed (it holds the reference itself), so ERASE
     only needs no one pointing AT it *)
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Garcia' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST employee WITHIN person_employee";
      "FIND FIRST support_staff WITHIN employee_support_staff";
      "ERASE support_staff" ];
  let s3 = key keys "support_staff" "s3" in
  Alcotest.(check bool) "record gone" true
    (Mapping.Kernel.get session.Codasyl_dml.Session.kernel s3 = None)

let suite =
  suite
  @ [
      "ERASE supertype blocked by subtype", `Quick, test_erase_supertype_blocked_by_subtype;
      "ERASE leaf subtype ok", `Quick, test_erase_leaf_subtype_ok;
    ]

(* --- PERFORM UNTIL EOF (the §VI.B.4 loop idiom) ----------------------------- *)

let test_perform_until_eof_paper_example () =
  (* the paper's worked transaction: iterate a professor's advisees *)
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person";
      "FIND FIRST employee WITHIN person_employee";
      "FIND FIRST faculty WITHIN employee_faculty";
      "FIND FIRST student WITHIN advisor" ];
  let program =
    Codasyl_dml.Parser.program
      {|PERFORM UNTIL EOF = 'YES'
GET student
FIND NEXT student WITHIN advisor
END PERFORM|}
  in
  Alcotest.(check int) "one loop statement" 1 (List.length program);
  let results = Codasyl_dml.Engine.run_program session program in
  match results with
  | [ (_, Ok (Codasyl_dml.Engine.Done msg)) ] ->
    (* Hsiao advises two students: the loop GETs st1, advances to st2,
       GETs st2, then the FIND NEXT hits end-of-set in iteration 2 *)
    Alcotest.(check bool) "two iterations" true
      (Daplex.Str_search.find msg "1 iteration" <> None
       || Daplex.Str_search.find msg "2 iteration" <> None)
  | _ -> Alcotest.fail "loop did not complete"

let test_perform_nested_and_errors () =
  let session, _ = fresh_session () in
  (* nested blocks parse *)
  let program =
    Codasyl_dml.Parser.program
      {|PERFORM UNTIL EOF
FIND NEXT course WITHIN system_course
PERFORM UNTIL EOF
FIND NEXT student WITHIN advisor
END PERFORM
END PERFORM|}
  in
  begin
    match program with
    | [ Codasyl_dml.Ast.Perform_until_eof [ _; Codasyl_dml.Ast.Perform_until_eof [ _ ] ] ] -> ()
    | _ -> Alcotest.fail "nested structure expected"
  end;
  (* unterminated block rejected *)
  Alcotest.(check bool) "unterminated rejected" true
    (match Codasyl_dml.Parser.program "PERFORM UNTIL EOF\nGET" with
     | exception Codasyl_dml.Parser.Parse_error _ -> true
     | _ -> false);
  (* stray END PERFORM rejected *)
  Alcotest.(check bool) "stray closer rejected" true
    (match Codasyl_dml.Parser.program "GET\nEND PERFORM" with
     | exception Codasyl_dml.Parser.Parse_error _ -> true
     | _ -> false);
  (* a loop that can never reach EOF is stopped defensively *)
  let msg =
    match
      Codasyl_dml.Engine.execute session
        (List.hd (Codasyl_dml.Parser.program "PERFORM UNTIL EOF\nMOVE 1 TO credits IN course\nEND PERFORM"))
    with
    | Error msg -> msg
    | Ok o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
  in
  Alcotest.(check bool) "runaway loop capped" true
    (Daplex.Str_search.find msg "iterations" <> None)

let suite =
  suite
  @ [
      "PERFORM UNTIL EOF (paper's loop)", `Quick, test_perform_until_eof_paper_example;
      "PERFORM nesting and errors", `Quick, test_perform_nested_and_errors;
    ]

let test_find_any_fills_request_buffer () =
  (* §VI.B.3's assumption: records located by a prior FIND are already in
     RB, so FIND DUPLICATE works right after FIND ANY *)
  let session, keys = fresh_session () in
  run_all session
    [ "MOVE 'Advanced Database' TO title IN course";
      "FIND ANY course USING title IN course" ];
  let dup = expect_found session "FIND DUPLICATE WITHIN system_course USING title IN course" in
  Alcotest.(check int) "duplicate straight from FIND ANY's RB"
    (key keys "course" "c4") dup;
  (* and the paper's CS-students loop: FIND ANY student restricts the
     person_student RB to the CS students, whose persons are iterated *)
  run_all session
    [ "MOVE 'Computer Science' TO major IN student";
      "FIND ANY student USING major IN student" ];
  let _ = expect_found session "FIND FIRST person WITHIN person_student" in
  let count = ref 1 in
  let rec loop () =
    match exec session "FIND NEXT person WITHIN person_student" with
    | Ok (Codasyl_dml.Engine.Found _) -> incr count; loop ()
    | Ok Codasyl_dml.Engine.End_of_set -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Codasyl_dml.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  in
  loop ();
  Alcotest.(check int) "three CS persons" 3 !count

let suite =
  suite @ [ "FIND ANY fills RB", `Quick, test_find_any_fills_request_buffer ]

let test_connect_disconnect_wrong_member () =
  let session, _ = fresh_session () in
  run_all session
    [ "MOVE 'Compilers' TO title IN course"; "FIND ANY course USING title IN course" ];
  (* course is not a member of advisor (students are) *)
  let msg = expect_error session "CONNECT course TO advisor" in
  Alcotest.(check bool) "connect membership checked" true
    (Daplex.Str_search.find msg "not a member" <> None);
  let msg = expect_error session "DISCONNECT course FROM advisor" in
  Alcotest.(check bool) "disconnect membership checked" true
    (Daplex.Str_search.find msg "not a member" <> None)

let suite =
  suite
  @ [ "CONNECT/DISCONNECT wrong member", `Quick, test_connect_disconnect_wrong_member ]

(* Tests for the Daplex DML subset: FOR EACH / PRINT with value
   inheritance, CREATE, DESTROY. *)

let fresh () =
  let kernel, transform, keys = Mapping.Loader.university () in
  Daplex_dml.Engine.create kernel transform, keys

let key keys type_name row_key =
  match Mapping.Loader.find_key keys ~type_name ~row_key with
  | Some k -> k
  | None -> Alcotest.failf "no key for %s/%s" type_name row_key

let exec t src = Daplex_dml.Engine.execute t (Daplex_dml.Parser.stmt src)

let rows t src =
  match exec t src with
  | Ok (Daplex_dml.Engine.Printed rows) -> rows
  | Ok o -> Alcotest.failf "%s: expected rows, got %s" src (Daplex_dml.Engine.outcome_to_string o)
  | Error msg -> Alcotest.failf "%s: %s" src msg

let cell row label =
  match List.assoc_opt label row with
  | Some v -> Abdm.Value.to_display v
  | None -> Alcotest.failf "no column %s" label

(* --- parser ----------------------------------------------------------- *)

let test_parser () =
  let p src = Daplex_dml.Ast.to_string (Daplex_dml.Parser.stmt src) in
  Alcotest.(check string) "for each"
    "FOR EACH s IN student SUCH THAT major(s) = 'CS' PRINT name(s), major(s) END"
    (p "FOR EACH s IN student SUCH THAT major(s) = 'CS' PRINT name(s), major(s) END");
  Alcotest.(check string) "nested path"
    "FOR EACH s IN student PRINT name(advisor(s)) END"
    (p "FOR EACH s IN student PRINT name(advisor(s)) END");
  Alcotest.(check string) "create"
    "CREATE course (title = 'X', credits = 3)"
    (p "CREATE course (title = 'X', credits = 3)");
  Alcotest.(check string) "create under"
    "CREATE student UNDER person 17 (major = 'History')"
    (p "CREATE student UNDER person 17 (major = 'History')");
  Alcotest.(check string) "destroy"
    "DESTROY c IN course SUCH THAT title(c) = 'X'"
    (p "DESTROY c IN course SUCH THAT title(c) = 'X'");
  Alcotest.(check bool) "parse error" true
    (match Daplex_dml.Parser.stmt "FOR EACH s student PRINT x END" with
     | exception Daplex_dml.Parser.Parse_error _ -> true
     | _ -> false)

(* --- FOR EACH --------------------------------------------------------- *)

let test_for_each_own_function () =
  let t, _ = fresh () in
  let out = rows t "FOR EACH c IN course SUCH THAT credits(c) = 3 PRINT title(c) END" in
  Alcotest.(check int) "four 3-credit courses" 4 (List.length out)

let test_for_each_inherited_function () =
  let t, _ = fresh () in
  (* name is declared on person; students must inherit it *)
  let out =
    rows t
      "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT name(s) END"
  in
  let names = List.map (fun row -> cell row "name(s)") out in
  Alcotest.(check (list string)) "inherited names"
    [ "Coker"; "Rodeck"; "Emdi" ] names

let test_for_each_inherited_condition () =
  let t, _ = fresh () in
  (* salary is on employee; faculty inherit it through the ISA set *)
  let out =
    rows t "FOR EACH f IN faculty SUCH THAT salary(f) > 60000 PRINT rank(f), salary(f) END"
  in
  Alcotest.(check int) "three well-paid faculty" 3 (List.length out)

let test_for_each_nested_path () =
  let t, _ = fresh () in
  let out =
    rows t
      "FOR EACH s IN student SUCH THAT name(s) = 'Coker' PRINT name(advisor(s)) END"
  in
  Alcotest.(check int) "one row" 1 (List.length out);
  (* advisor(s) is f1 = Hsiao; name() of the faculty walks faculty ->
     employee -> person *)
  Alcotest.(check string) "advisor name" "Hsiao"
    (cell (List.hd out) "name(advisor(s))")

let test_for_each_multivalued () =
  let t, _ = fresh () in
  let out =
    rows t "FOR EACH f IN faculty SUCH THAT rank(f) = 'full' PRINT title(teaching(f)) END"
  in
  (* f1 (Hsiao) and f4 (Marshall) are full professors *)
  Alcotest.(check int) "two rows" 2 (List.length out);
  let joined = List.map (fun row -> cell row "title(teaching(f))") out in
  Alcotest.(check bool) "Hsiao teaches Advanced Database twice + OS" true
    (List.exists
       (fun s -> Daplex.Str_search.find s "Operating Systems" <> None)
       joined)

let test_for_each_scalar_multivalued () =
  let t, _ = fresh () in
  let out =
    rows t "FOR EACH e IN employee SUCH THAT name(e) = 'Bradley' PRINT dependents(e) END"
  in
  Alcotest.(check string) "three dependents joined" "Dan, Eve, Fay"
    (cell (List.hd out) "dependents(e)")

let test_for_each_errors () =
  let t, _ = fresh () in
  let bad src =
    match exec t src with
    | Error _ -> true
    | Ok _ -> false
  in
  Alcotest.(check bool) "unknown entity" true
    (bad "FOR EACH x IN ghost PRINT x END");
  Alcotest.(check bool) "unknown function" true
    (bad "FOR EACH c IN course PRINT colour(c) END");
  Alcotest.(check bool) "unbound variable" true
    (bad "FOR EACH c IN course PRINT title(d) END");
  Alcotest.(check bool) "composing a scalar" true
    (bad "FOR EACH c IN course PRINT title(credits(c)) END")

(* --- CREATE / DESTROY --------------------------------------------------- *)

let test_create_entity () =
  let t, _ = fresh () in
  begin
    match exec t "CREATE course (title = 'Robotics', semester = 'Fall', credits = 4)" with
    | Ok (Daplex_dml.Engine.Created _) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  let out = rows t "FOR EACH c IN course SUCH THAT title(c) = 'Robotics' PRINT credits(c) END" in
  Alcotest.(check int) "created course found" 1 (List.length out)

let test_create_subtype_requires_under () =
  let t, _ = fresh () in
  match exec t "CREATE student (major = 'History')" with
  | Error msg ->
    Alcotest.(check bool) "asks for UNDER" true
      (Daplex.Str_search.find msg "UNDER" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)

let test_create_subtype_under () =
  let t, keys = fresh () in
  let p4 = key keys "person" "p4" in
  match
    exec t (Printf.sprintf "CREATE student UNDER person %d (major = 'History')" p4)
  with
  | Ok (Daplex_dml.Engine.Created _) ->
    let out =
      rows t "FOR EACH s IN student SUCH THAT major(s) = 'History' PRINT name(s) END"
    in
    Alcotest.(check string) "inherits Marshall's name" "Marshall"
      (cell (List.hd out) "name(s)")
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)
  | Error msg -> Alcotest.fail msg

let test_create_rejects_entity_valued () =
  let t, _ = fresh () in
  match exec t "CREATE course (taught_by = 3)" with
  | Error msg ->
    Alcotest.(check bool) "entity-valued rejected" true
      (Daplex.Str_search.find msg "entity-valued" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)

let test_destroy_referenced_aborts () =
  let t, _ = fresh () in
  match exec t "DESTROY c IN course SUCH THAT title(c) = 'Compilers'" with
  | Error msg ->
    Alcotest.(check bool) "abort on reference" true
      (Daplex.Str_search.find msg "referenced" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)

let test_destroy_fresh_and_hierarchy () =
  let t, keys = fresh () in
  (* create a fresh person with a student record under it; destroying the
     person must also remove the student (the hierarchy of §VI.H) *)
  let created =
    match exec t "CREATE person (name = 'Temp', ssn = 1)" with
    | Ok (Daplex_dml.Engine.Created k) -> k
    | _ -> Alcotest.fail "create person failed"
  in
  ignore keys;
  begin
    match
      exec t (Printf.sprintf "CREATE student UNDER person %d (major = 'Art')" created)
    with
    | Ok (Daplex_dml.Engine.Created _) -> ()
    | _ -> Alcotest.fail "create student failed"
  end;
  begin
    match exec t "DESTROY p IN person SUCH THAT name(p) = 'Temp'" with
    | Ok (Daplex_dml.Engine.Destroyed 1) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  let out = rows t "FOR EACH s IN student SUCH THAT major(s) = 'Art' PRINT major(s) END" in
  Alcotest.(check int) "student destroyed with person" 0 (List.length out)

let suite =
  [
    "parser", `Quick, test_parser;
    "FOR EACH own function", `Quick, test_for_each_own_function;
    "FOR EACH inherited function", `Quick, test_for_each_inherited_function;
    "FOR EACH inherited condition", `Quick, test_for_each_inherited_condition;
    "FOR EACH nested path", `Quick, test_for_each_nested_path;
    "FOR EACH multi-valued", `Quick, test_for_each_multivalued;
    "FOR EACH scalar multi-valued", `Quick, test_for_each_scalar_multivalued;
    "FOR EACH errors", `Quick, test_for_each_errors;
    "CREATE entity", `Quick, test_create_entity;
    "CREATE subtype requires UNDER", `Quick, test_create_subtype_requires_under;
    "CREATE subtype UNDER person", `Quick, test_create_subtype_under;
    "CREATE rejects entity-valued", `Quick, test_create_rejects_entity_valued;
    "DESTROY referenced aborts", `Quick, test_destroy_referenced_aborts;
    "DESTROY hierarchy", `Quick, test_destroy_fresh_and_hierarchy;
  ]

(* --- LET / INCLUDE / EXCLUDE (Shipman's update statements) ---------------- *)

let test_let_scalar () =
  let t, _ = fresh () in
  begin
    match
      exec t
        "FOR EACH s IN student SUCH THAT name(s) = 'Coker' LET major(s) = 'Mathematics' END"
    with
    | Ok (Daplex_dml.Engine.Printed []) -> ()
    | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)
    | Error msg -> Alcotest.fail msg
  end;
  let out = rows t "FOR EACH s IN student SUCH THAT name(s) = 'Coker' PRINT major(s) END" in
  Alcotest.(check string) "major reassigned" "Mathematics"
    (cell (List.hd out) "major(s)")

let test_let_inherited_scalar () =
  let t, _ = fresh () in
  (* salary lives on employee; LET through a faculty walks the ISA chain *)
  ignore
    (exec t
       "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' LET salary(f) = 90000 END");
  let out = rows t "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' PRINT salary(f) END" in
  Alcotest.(check string) "salary updated at the employee record" "90000"
    (cell (List.hd out) "salary(f)")

let test_let_rejects_entity_valued () =
  let t, _ = fresh () in
  match exec t "FOR EACH s IN student LET advisor(s) = 3 END" with
  | Error msg ->
    Alcotest.(check bool) "suggests INCLUDE/EXCLUDE" true
      (Daplex.Str_search.find msg "INCLUDE" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)

let test_include_single_valued () =
  let t, _ = fresh () in
  ignore
    (exec t
       "FOR EACH s IN student SUCH THAT name(s) = 'Coker' INCLUDE advisor(s) THE f IN faculty SUCH THAT name(f) = 'Lum' END");
  let out =
    rows t
      "FOR EACH s IN student SUCH THAT name(s) = 'Coker' PRINT name(advisor(s)) END"
  in
  Alcotest.(check string) "advisor switched" "Lum"
    (cell (List.hd out) "name(advisor(s))")

let test_exclude_single_valued () =
  let t, _ = fresh () in
  ignore
    (exec t
       "FOR EACH s IN student SUCH THAT name(s) = 'Coker' EXCLUDE advisor(s) THE f IN faculty SUCH THAT name(f) = 'Hsiao' END");
  let out =
    rows t "FOR EACH s IN student SUCH THAT name(s) = 'Coker' PRINT advisor(s) END"
  in
  Alcotest.(check string) "advisor nulled" "NULL" (cell (List.hd out) "advisor(s)")

let test_include_exclude_link () =
  let t, _ = fresh () in
  (* Hsiao does not teach Compilers; include it, then exclude it *)
  ignore
    (exec t
       "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' INCLUDE teaching(f) THE c IN course SUCH THAT title(c) = 'Compilers' END");
  let courses () =
    cell
      (List.hd
         (rows t
            "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' PRINT title(teaching(f)) END"))
      "title(teaching(f))"
  in
  Alcotest.(check bool) "Compilers included" true
    (Daplex.Str_search.find (courses ()) "Compilers" <> None);
  ignore
    (exec t
       "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' EXCLUDE teaching(f) THE c IN course SUCH THAT title(c) = 'Compilers' END");
  Alcotest.(check bool) "Compilers excluded" true
    (Daplex.Str_search.find (courses ()) "Compilers" = None)

let test_include_owner_held () =
  let t, _ = fresh () in
  (* Physics (d3) does not offer Calculus; include it *)
  ignore
    (exec t
       "FOR EACH d IN department SUCH THAT dname(d) = 'Physics' INCLUDE offers(d) THE c IN course SUCH THAT title(c) = 'Calculus' END");
  let out =
    rows t
      "FOR EACH d IN department SUCH THAT dname(d) = 'Physics' PRINT title(offers(d)) END"
  in
  Alcotest.(check bool) "Calculus now offered by Physics" true
    (Daplex.Str_search.find (cell (List.hd out) "title(offers(d))") "Calculus"
     <> None)

let test_exclude_owner_held () =
  let t, _ = fresh () in
  ignore
    (exec t
       "FOR EACH d IN department SUCH THAT dname(d) = 'Physics' EXCLUDE offers(d) THE c IN course SUCH THAT title(c) = 'Mechanics' END");
  let out =
    rows t
      "FOR EACH d IN department SUCH THAT dname(d) = 'Physics' PRINT title(offers(d)) END"
  in
  Alcotest.(check bool) "Mechanics dropped" true
    (Daplex.Str_search.find (cell (List.hd out) "title(offers(d))") "Mechanics"
     = None)

let test_selector_must_be_unique () =
  let t, _ = fresh () in
  match
    exec t
      "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' INCLUDE teaching(f) THE c IN course SUCH THAT credits(c) = 4 END"
  with
  | Error msg ->
    Alcotest.(check bool) "ambiguous selector rejected" true
      (Daplex.Str_search.find msg "expected one" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)

let test_include_wrong_range () =
  let t, _ = fresh () in
  match
    exec t
      "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' INCLUDE teaching(f) THE d IN department SUCH THAT dname(d) = 'Physics' END"
  with
  | Error msg ->
    Alcotest.(check bool) "range mismatch" true
      (Daplex.Str_search.find msg "ranges over" <> None)
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)

let test_mixed_body_actions () =
  let t, _ = fresh () in
  let out =
    rows t
      "FOR EACH s IN student SUCH THAT name(s) = 'Rodeck' LET major(s) = 'Databases' PRINT name(s), major(s) END"
  in
  Alcotest.(check string) "print sees the let" "Databases"
    (cell (List.hd out) "major(s)")

let suite =
  suite
  @ [
      "LET scalar", `Quick, test_let_scalar;
      "LET inherited scalar", `Quick, test_let_inherited_scalar;
      "LET rejects entity-valued", `Quick, test_let_rejects_entity_valued;
      "INCLUDE single-valued", `Quick, test_include_single_valued;
      "EXCLUDE single-valued", `Quick, test_exclude_single_valued;
      "INCLUDE/EXCLUDE via LINK", `Quick, test_include_exclude_link;
      "INCLUDE owner-held", `Quick, test_include_owner_held;
      "EXCLUDE owner-held", `Quick, test_exclude_owner_held;
      "selector must be unique", `Quick, test_selector_must_be_unique;
      "INCLUDE wrong range", `Quick, test_include_wrong_range;
      "mixed body actions", `Quick, test_mixed_body_actions;
    ]

(* --- set-expression aggregates ---------------------------------------------- *)

let test_aggregate_count () =
  let t, _ = fresh () in
  let out =
    rows t
      "FOR EACH f IN faculty SUCH THAT name(f) = 'Hsiao' PRINT COUNT(teaching(f)) END"
  in
  Alcotest.(check string) "Hsiao teaches three courses" "3"
    (cell (List.hd out) "COUNT(teaching(f))")

let test_aggregate_in_condition () =
  let t, _ = fresh () in
  let out =
    rows t
      "FOR EACH f IN faculty SUCH THAT COUNT(teaching(f)) >= 3 PRINT name(f) END"
  in
  let names = List.map (fun row -> cell row "name(f)") out in
  Alcotest.(check (list string)) "Hsiao and Washburn teach 3+" [ "Hsiao"; "Washburn" ] names

let test_aggregate_over_scalars () =
  let t, _ = fresh () in
  let out =
    rows t
      "FOR EACH d IN department SUCH THAT dname(d) = 'Computer Science' PRINT AVG(credits(offers(d))) END"
  in
  Alcotest.(check string) "all CS courses are 4 credits" "4"
    (cell (List.hd out) "AVG(credits(offers(d)))")

let test_schema_function_shadows_aggregate () =
  (* a schema function named 'count' must win over the aggregate *)
  let schema =
    Daplex.Ddl_parser.schema
      "DATABASE d\nTYPE thing IS ENTITY\n  count : INTEGER;\nEND ENTITY"
  in
  let transform = Transformer.Transform.transform schema in
  let kernel = Mapping.Kernel.single () in
  let _ =
    Mapping.Loader.load kernel transform
      [ { Daplex.University.row_type = "thing"; row_key = "t1"; row_isa = [];
          row_values = [ "count", Daplex.University.Scalar (Abdm.Value.Int 42) ] } ]
  in
  let engine = Daplex_dml.Engine.create kernel transform in
  match
    Daplex_dml.Engine.execute engine
      (Daplex_dml.Parser.stmt "FOR EACH x IN thing PRINT count(x) END")
  with
  | Ok (Daplex_dml.Engine.Printed [ row ]) ->
    Alcotest.(check bool) "function value, not aggregate" true
      (List.assoc_opt "count(x)" row = Some (Abdm.Value.Int 42))
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)
  | Error msg -> Alcotest.fail msg

let suite =
  suite
  @ [
      "aggregate COUNT over set", `Quick, test_aggregate_count;
      "aggregate in SUCH THAT", `Quick, test_aggregate_in_condition;
      "aggregate over scalar path", `Quick, test_aggregate_over_scalars;
      "schema function shadows aggregate", `Quick, test_schema_function_shadows_aggregate;
    ]

let test_destroy_all_without_such_that () =
  let t, _ = fresh () in
  (* all 12 courses are referenced (taught/offered); build two loose ones *)
  ignore (exec t "CREATE course (title = 'L1', semester = 'X', credits = 1)");
  ignore (exec t "CREATE course (title = 'L2', semester = 'X', credits = 1)");
  match exec t "DESTROY c IN course SUCH THAT semester(c) = 'X'" with
  | Ok (Daplex_dml.Engine.Destroyed 2) -> ()
  | Ok o -> Alcotest.failf "unexpected %s" (Daplex_dml.Engine.outcome_to_string o)
  | Error msg -> Alcotest.fail msg

let suite =
  suite @ [ "DESTROY by predicate", `Quick, test_destroy_all_without_such_that ]

(* --- the company fixture end-to-end: deep chains and self-m2m --------------- *)

let company_rows =
  let row row_type row_key row_isa row_values =
    { Daplex.University.row_type; row_key; row_isa; row_values }
  in
  let str s = Daplex.University.Scalar (Abdm.Value.Str s) in
  let int i = Daplex.University.Scalar (Abdm.Value.Int i) in
  let rows =
    [
      row "client" "cl1" [] [ "cname", str "Navy";
        "contacts", Daplex.University.Scalars [ Abdm.Value.Str "ops" ];
        "partners", Daplex.University.Refs [ "cl2" ] ];
      row "client" "cl2" [] [ "cname", str "NSF";
        "contacts", Daplex.University.Scalars [];
        "partners", Daplex.University.Refs [ "cl1" ] ];
      row "client" "cl3" [] [ "cname", str "Loner";
        "contacts", Daplex.University.Scalars [];
        "partners", Daplex.University.Refs [] ];
      row "project" "pr1" [] [ "pname", str "MLDS"; "budget", int 100;
        "sponsor", Daplex.University.Ref "cl1";
        "staffed_by", Daplex.University.Refs [ "en1" ] ];
      row "office" "of1" [] [ "city", str "Monterey";
        "houses", Daplex.University.Refs [ "w1"; "w2" ] ];
      row "worker" "w1" [] [ "wname", str "Coker"; "badge", int 1 ];
      row "worker" "w2" [] [ "wname", str "Emdi"; "badge", int 2 ];
      row "engineer" "en1" [ "worker", "w1" ]
        [ "speciality", str "databases";
          "assigned", Daplex.University.Refs [ "pr1" ] ];
      row "senior_engineer" "se1" [ "engineer", "en1" ]
        [ "bonus", int 500; "mentor", Daplex.University.Ref "en1" ];
      row "manager" "m1" [ "worker", "w2" ]
        [ "level", int 3; "runs", Daplex.University.Refs [ "pr1" ] ];
    ]
  in
  rows

let company_engine () =
  let schema = Daplex.Company.schema () in
  let transform = Transformer.Transform.transform schema in
  let kernel = Mapping.Kernel.single () in
  let _keys = Mapping.Loader.load kernel transform company_rows in
  Daplex_dml.Engine.create kernel transform

let test_company_three_level_inheritance () =
  let t = company_engine () in
  (* wname lives on worker, two ISA hops above senior_engineer *)
  let out = rows t "FOR EACH s IN senior_engineer PRINT wname(s), bonus(s) END" in
  Alcotest.(check string) "name through two hops" "Coker"
    (cell (List.hd out) "wname(s)")

let test_company_self_m2m_navigation () =
  let t = company_engine () in
  let out =
    rows t "FOR EACH c IN client SUCH THAT cname(c) = 'Navy' PRINT cname(partners(c)) END"
  in
  (* the partner must be the OTHER client, not Navy itself *)
  Alcotest.(check string) "partner is NSF" "NSF"
    (cell (List.hd out) "cname(partners(c))")

let test_company_self_m2m_update () =
  let t = company_engine () in
  ignore
    (exec t
       "FOR EACH c IN client SUCH THAT cname(c) = 'Navy' INCLUDE partners(c) THE d IN client SUCH THAT cname(d) = 'Loner' END");
  let out =
    rows t "FOR EACH c IN client SUCH THAT cname(c) = 'Navy' PRINT cname(partners(c)) END"
  in
  let partners = cell (List.hd out) "cname(partners(c))" in
  Alcotest.(check bool) "both partners now" true
    (Daplex.Str_search.find partners "NSF" <> None
     && Daplex.Str_search.find partners "Loner" <> None);
  ignore
    (exec t
       "FOR EACH c IN client SUCH THAT cname(c) = 'Navy' EXCLUDE partners(c) THE d IN client SUCH THAT cname(d) = 'NSF' END");
  let out =
    rows t "FOR EACH c IN client SUCH THAT cname(c) = 'Navy' PRINT cname(partners(c)) END"
  in
  Alcotest.(check string) "only Loner remains" "Loner"
    (cell (List.hd out) "cname(partners(c))")

let test_company_owner_held_and_sv_on_subtype () =
  let t = company_engine () in
  let out =
    rows t "FOR EACH o IN office PRINT city(o), COUNT(houses(o)) END"
  in
  Alcotest.(check string) "office houses two workers" "2"
    (cell (List.hd out) "COUNT(houses(o))");
  let out =
    rows t "FOR EACH s IN senior_engineer PRINT speciality(mentor(s)) END"
  in
  Alcotest.(check string) "mentor reachable" "databases"
    (cell (List.hd out) "speciality(mentor(s))")

let suite =
  suite
  @ [
      "company: 3-level inheritance", `Quick, test_company_three_level_inheritance;
      "company: self m2m navigation", `Quick, test_company_self_m2m_navigation;
      "company: self m2m update", `Quick, test_company_self_m2m_update;
      "company: owner-held + sv on subtype", `Quick, test_company_owner_held_and_sv_on_subtype;
    ]

(* --- SUCH THAT translation ----------------------------------------------- *)

(* A comparison on a unique scalar of the entity's own type rides in the
   RETRIEVE: the statement's requests do not grow with the database. *)
let test_such_that_requests_independent_of_size () =
  let requests scale =
    let kernel, transform, _ = Mapping.Loader.university ~scale () in
    let t = Daplex_dml.Engine.create kernel transform in
    Alcotest.(check int) "persons" (15 * (scale / 6)) (Mapping.Kernel.count kernel "person");
    let out, log =
      Mapping.Kernel.collect kernel (fun () ->
          rows t
            "FOR EACH p IN person SUCH THAT ssn(p) = 111223335 PRINT name(p) END")
    in
    Alcotest.(check (list string)) "one person" [ "Lum" ]
      (List.map (fun row -> cell row "name(p)") out);
    List.length log
  in
  Alcotest.(check int) "requests over 15 vs 3000 persons" (requests 6) (requests 1200)

(* Paths over each entity type (outermost function first) — own,
   inherited, entity-valued and aggregate, and two that fail for some
   entities — with the literals their comparisons draw from. *)
let names = [ "'Hsiao'"; "'Lum'"; "'Coker'"; "'Jones'"; "'Emdi'"; "'M'" ]

let titles = [ "'Compilers'"; "'Calculus'"; "'Mechanics'"; "'Advanced Database'"; "'L1'" ]

let dnames = [ "'Computer Science'"; "'Physics'"; "'Mathematics'"; "'Q'" ]

let ints = List.map string_of_int

let refs = ints [ 1; 5; 17; 30; 42; 60 ]

let person_paths =
  [ [ "name" ], names; [ "ssn" ], ints [ 111223333; 222334445; 333445560; 300000000 ] ]

let employee_paths =
  person_paths
  @ [
      [ "salary" ], ints [ 26000; 47000; 52000; 61000; 72000 ];
      [ "dependents" ], [ "'Ann'"; "'Gil'"; "'Zed'" ];
    ]

let paths_of = function
  | "person" -> person_paths
  | "employee" -> employee_paths
  | "faculty" ->
    employee_paths
    @ [
        [ "rank" ], [ "'full'"; "'assistant'"; "'associate'"; "'emeritus'" ];
        [ "dname"; "dept" ], dnames;
        (* an error for each faculty member with a department *)
        [ "title"; "dept" ], titles;
        [ "dept" ], refs;
        [ "title"; "teaching" ], titles;
        [ "COUNT"; "teaching" ], ints [ 1; 2; 3 ];
      ]
  | "student" ->
    person_paths
    @ [
        [ "major" ], [ "'Computer Science'"; "'Physics'"; "'Art'" ];
        [ "name"; "advisor" ], names;
        [ "advisor" ], refs;
        (* an error for each student with an advisor *)
        [ "dname"; "advisor" ], dnames;
      ]
  | "support_staff" ->
    employee_paths
    @ [ [ "hours" ], ints [ 20; 30; 40 ]; [ "name"; "supervisor" ], names ]
  | "course" ->
    [
      [ "title" ], titles;
      [ "semester" ], [ "'Fall'"; "'Spring'"; "'Winter'"; "'X'" ];
      [ "credits" ], ints [ 1; 3; 4; 5 ];
      [ "name"; "taught_by" ], names;
      [ "COUNT"; "taught_by" ], ints [ 0; 1; 2 ];
    ]
  | "department" ->
    [
      [ "dname" ], dnames;
      [ "building" ], [ "'Root'"; "'Spanagel'"; "'Q'" ];
      [ "title"; "offers" ], titles;
      [ "AVG"; "credits"; "offers" ], ints [ 3; 4 ];
      [ "COUNT"; "offers" ], ints [ 2; 3; 4 ];
    ]
  | other -> invalid_arg other

let entities =
  [ "person"; "employee"; "faculty"; "student"; "support_staff"; "course"; "department" ]

(* entity-valued functions: (entity, function, range) *)
let memberships =
  [
    "faculty", "teaching", "course";
    "faculty", "dept", "department";
    "course", "taught_by", "faculty";
    "student", "advisor", "faculty";
    "department", "offers", "course";
    "support_staff", "supervisor", "employee";
  ]

let gen_daplex_stmt =
  let open QCheck2.Gen in
  let gen_path entity var =
    let* fns, values = oneofl (paths_of entity) in
    (* now and then a variable the statement does not bind *)
    let* var = frequency [ 19, pure var; 1, pure "z" ] in
    let text =
      List.fold_right (fun fn inner -> Printf.sprintf "%s(%s)" fn inner) fns var
    in
    pure (text, values)
  in
  let gen_comparison entity var =
    let* path, values = gen_path entity var in
    let* op = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ] in
    let* value = frequency [ 5, oneofl values; 1, pure "NULL" ] in
    pure (Printf.sprintf "%s %s %s" path op value)
  in
  let gen_such_that entity var =
    let* comps = list_size (int_range 0 3) (gen_comparison entity var) in
    pure
      (match comps with
       | [] -> ""
       | _ -> " SUCH THAT " ^ String.concat " AND " comps)
  in
  let gen_selector range =
    let* such_that = gen_such_that range "t" in
    pure (Printf.sprintf "THE t IN %s%s" range such_that)
  in
  let gen_action entity var =
    let own = List.filter (fun (e, _, _) -> String.equal e entity) memberships in
    let scalars = List.filter (fun (fns, _) -> List.length fns = 1) (paths_of entity) in
    let membership =
      if own = [] then []
      else
        [
          ( 2,
            let* _, fn, range = oneofl own in
            let* verb = oneofl [ "INCLUDE"; "EXCLUDE" ] in
            let* selector = gen_selector range in
            pure (Printf.sprintf "%s %s(%s) %s" verb fn var selector) );
        ]
    in
    frequency
      ([
         ( 4,
           let* paths = list_size (int_range 1 2) (gen_path entity var) in
           pure ("PRINT " ^ String.concat ", " (List.map fst paths)) );
         ( 2,
           let* fns, values = oneofl scalars in
           let* value = frequency [ 9, oneofl values; 1, pure "NULL" ] in
           pure (Printf.sprintf "LET %s(%s) = %s" (List.hd fns) var value) );
       ]
      @ membership)
  in
  let* entity = oneofl entities in
  frequency
    [
      ( 6,
        let* such_that = gen_such_that entity "v" in
        let* body = list_size (int_range 1 2) (gen_action entity "v") in
        pure
          (Printf.sprintf "FOR EACH v IN %s%s %s END" entity such_that
             (String.concat " " body)) );
      ( 2,
        let* such_that = gen_such_that entity "v" in
        pure (Printf.sprintf "DESTROY v IN %s%s" entity such_that) );
      ( 1,
        oneofl
          [
            "CREATE course (title = 'L1', semester = 'X', credits = 1)";
            "CREATE course (title = 'L2')";
            "CREATE department (dname = 'Q', building = 'Q')";
          ] );
    ]

(* Entities with Null scalars, which the kernel's [<>] and [= NULL]
   would match and the per-entity test does not. *)
let null_prelude =
  [
    "CREATE person (name = 'M')";
    "CREATE course (title = 'L2')";
    "CREATE department (dname = 'Q')";
  ]

(* Random statements over the University database give the same output,
   the same errors and the same final kernel as the per-entity oracle. *)
let prop_such_that_matches_oracle =
  QCheck2.Test.make ~count:700 ~name:"Daplex SUCH THAT = per-entity oracle"
    ~print:(String.concat ";\n")
    QCheck2.Gen.(list_size (int_range 1 6) gen_daplex_stmt)
    (fun script ->
      List.for_all
        (fun backends ->
          let kernel, transform, _ = Mapping.Loader.university ~backends () in
          let t = Daplex_dml.Engine.create kernel transform in
          let oracle_kernel, _, _ = Mapping.Loader.university ~backends () in
          let oracle = Daplex_oracle.create oracle_kernel transform in
          let show = function
            | Ok o -> Daplex_dml.Engine.outcome_to_string o
            | Error msg -> "error: " ^ msg
          in
          List.for_all
            (fun src ->
              let stmt = Daplex_dml.Parser.stmt src in
              let got = Daplex_dml.Engine.execute t stmt in
              let want = Daplex_oracle.execute oracle stmt in
              got = want
              || QCheck2.Test.fail_reportf "%d backends, %s:\ngot %s\noracle %s"
                   backends src (show got) (show want))
            (null_prelude @ script)
          && (List.of_seq (Mapping.Kernel.to_seq kernel)
              = List.of_seq (Mapping.Kernel.to_seq oracle_kernel)
             || QCheck2.Test.fail_reportf "%d backends: kernels differ" backends))
        [ 0; 3 ])

let suite =
  suite
  @ [
      "SUCH THAT requests independent of size", `Quick,
      test_such_that_requests_independent_of_size;
      QCheck_alcotest.to_alcotest prop_such_that_matches_oracle;
    ]

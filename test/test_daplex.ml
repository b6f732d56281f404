(* Tests for the functional (Daplex) data model: DDL parser, schema
   queries, function classification, constraints. *)

let university () = Daplex.University.schema ()

let test_university_parses () =
  let s = university () in
  Alcotest.(check string) "name" "university" s.Daplex.Schema.name;
  Alcotest.(check (list string)) "entities" [ "person"; "course"; "department" ]
    (List.map (fun (e : Daplex.Types.entity) -> e.ent_name) s.entities);
  Alcotest.(check (list string)) "subtypes"
    [ "employee"; "support_staff"; "faculty"; "student" ]
    (List.map (fun (t : Daplex.Types.subtype) -> t.sub_name) s.subtypes);
  Alcotest.(check int) "one uniqueness" 1 (List.length s.uniqueness);
  Alcotest.(check int) "one overlap" 1 (List.length s.overlaps)

let test_classification () =
  let s = university () in
  let classify tname fname =
    match Daplex.Schema.find_function s tname fname with
    | Some fn -> Daplex.Schema.classify s fn
    | None -> Alcotest.failf "no function %s.%s" tname fname
  in
  Alcotest.(check bool) "name scalar" true
    (classify "person" "name" = Daplex.Schema.C_scalar);
  Alcotest.(check bool) "rank scalar (enum)" true
    (classify "faculty" "rank" = Daplex.Schema.C_scalar);
  Alcotest.(check bool) "dependents scalar multi" true
    (classify "employee" "dependents" = Daplex.Schema.C_scalar_multi);
  Alcotest.(check bool) "advisor single-valued" true
    (classify "student" "advisor" = Daplex.Schema.C_single_valued "faculty");
  Alcotest.(check bool) "teaching multi-valued" true
    (classify "faculty" "teaching" = Daplex.Schema.C_multi_valued "course");
  Alcotest.(check bool) "offers multi-valued" true
    (classify "department" "offers" = Daplex.Schema.C_multi_valued "course")

let test_hierarchy () =
  let s = university () in
  Alcotest.(check (list string)) "faculty ancestors" [ "employee"; "person" ]
    (Daplex.Schema.ancestors s "faculty");
  Alcotest.(check (list string)) "person subtypes"
    [ "employee"; "student" ]
    (List.map
       (fun (t : Daplex.Types.subtype) -> t.sub_name)
       (Daplex.Schema.subtypes_of s "person"));
  Alcotest.(check bool) "faculty terminal" true (Daplex.Schema.is_terminal s "faculty");
  Alcotest.(check bool) "person not terminal" false (Daplex.Schema.is_terminal s "person");
  Alcotest.(check bool) "employee not terminal" false
    (Daplex.Schema.is_terminal s "employee")

let test_constraints () =
  let s = university () in
  Alcotest.(check (list string)) "unique functions of course"
    [ "title"; "semester" ]
    (Daplex.Schema.unique_functions s "course");
  Alcotest.(check bool) "declared overlap" true
    (Daplex.Schema.overlap_allowed s "student" "support_staff");
  Alcotest.(check bool) "symmetric" true
    (Daplex.Schema.overlap_allowed s "support_staff" "student");
  Alcotest.(check bool) "undeclared pair not allowed" false
    (Daplex.Schema.overlap_allowed s "student" "faculty")

let test_resolve_range () =
  let s = university () in
  begin
    match Daplex.Schema.resolve_range s (Daplex.Types.R_named "rank_type") with
    | Daplex.Schema.Rs_scalar { kind = Daplex.Types.K_enum; values; length } ->
      Alcotest.(check int) "4 members" 4 (List.length values);
      Alcotest.(check int) "longest member" 10 length
    | _ -> Alcotest.fail "rank_type should be enum"
  end;
  begin
    match Daplex.Schema.resolve_range s (Daplex.Types.R_named "faculty") with
    | Daplex.Schema.Rs_entity "faculty" -> ()
    | _ -> Alcotest.fail "faculty should be an entity range"
  end;
  Alcotest.(check bool) "unknown range raises" true
    (match Daplex.Schema.resolve_range s (Daplex.Types.R_named "ghost") with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_ddl_roundtrip () =
  let s = university () in
  let reparsed = Daplex.Ddl_parser.schema (Daplex.Schema.to_ddl s) in
  Alcotest.(check string) "ddl stable" (Daplex.Schema.to_ddl s)
    (Daplex.Schema.to_ddl reparsed)

let test_non_entity_declarations () =
  let s =
    Daplex.Ddl_parser.schema
      {|DATABASE t
TYPE color IS (red, green, blue)
TYPE small IS INTEGER RANGE 1..9
TYPE tag IS STRING(8)
TYPE flag IS BOOLEAN
TYPE code IS SUBTYPE OF tag
TYPE alias IS NEW tag
TYPE thing IS ENTITY
  c : color;
  n : small;
  t : tag;
END ENTITY
|}
  in
  let ne name =
    match Daplex.Schema.find_non_entity s name with
    | Some ne -> ne
    | None -> Alcotest.failf "missing non-entity %s" name
  in
  Alcotest.(check bool) "enum" true ((ne "color").ne_kind = Daplex.Types.K_enum);
  Alcotest.(check bool) "int range" true ((ne "small").ne_range = Some (1, 9));
  Alcotest.(check int) "string len" 8 (ne "tag").ne_length;
  Alcotest.(check bool) "subtype class" true
    ((ne "code").ne_class = Daplex.Types.NE_subtype);
  Alcotest.(check bool) "derived class" true
    ((ne "alias").ne_class = Daplex.Types.NE_derived)

let test_ddl_errors () =
  let bad src =
    match Daplex.Ddl_parser.schema src with
    | exception Daplex.Ddl_parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing database" true (bad "TYPE x IS ENTITY\nEND ENTITY");
  Alcotest.(check bool) "unknown supertype" true
    (bad "DATABASE d\nTYPE x IS ghost ENTITY\nEND ENTITY");
  Alcotest.(check bool) "unknown function range" true
    (bad "DATABASE d\nTYPE x IS ENTITY\n  f : ghost;\nEND ENTITY");
  Alcotest.(check bool) "duplicate type name" true
    (bad "DATABASE d\nTYPE x IS ENTITY\nEND ENTITY\nTYPE x IS ENTITY\nEND ENTITY");
  Alcotest.(check bool) "unique on unknown type" true
    (bad "DATABASE d\nUNIQUE f WITHIN ghost");
  Alcotest.(check bool) "unique on undeclared function" true
    (bad "DATABASE d\nTYPE x IS ENTITY\n  f : INTEGER;\nEND ENTITY\nUNIQUE g WITHIN x");
  Alcotest.(check bool) "overlap names non-subtype" true
    (bad "DATABASE d\nTYPE x IS ENTITY\nEND ENTITY\nOVERLAP x WITH x")

let test_owner_of_function () =
  let s = university () in
  match Daplex.Schema.owner_of_function s "advisor" with
  | Some (tref, fn) ->
    Alcotest.(check string) "declared on student" "student"
      (Daplex.Schema.type_name tref);
    Alcotest.(check bool) "not set valued" false fn.fn_set
  | None -> Alcotest.fail "advisor not found"

let test_scaled_rows () =
  let rows = Daplex.University.scaled_rows 18 in
  let students =
    List.filter
      (fun (r : Daplex.University.row) -> String.equal r.row_type "student")
      rows
  in
  Alcotest.(check int) "3 replicas of 6 students" 18 (List.length students);
  (* keys must stay unique *)
  let keys = List.map (fun (r : Daplex.University.row) -> r.row_key) students in
  Alcotest.(check int) "unique keys" 18 (List.length (List.sort_uniq compare keys))

(* The replicas keep the schema's UNIQUE title, semester WITHIN course,
   and ssn stays a key a point lookup can use. *)
let test_scaled_rows_unique () =
  let rows = Daplex.University.scaled_rows 30 in
  let values row_type fns =
    List.filter_map
      (fun (r : Daplex.University.row) ->
        if String.equal r.row_type row_type then
          Some (List.map (fun fn -> List.assoc fn r.row_values) fns)
        else None)
      rows
  in
  let unique what vs =
    Alcotest.(check int) what (List.length vs)
      (List.length (List.sort_uniq compare vs))
  in
  unique "unique (title, semester)" (values "course" [ "title"; "semester" ]);
  unique "unique ssn" (values "person" [ "ssn" ])

let suite =
  [
    "university parses", `Quick, test_university_parses;
    "function classification", `Quick, test_classification;
    "hierarchy", `Quick, test_hierarchy;
    "constraints", `Quick, test_constraints;
    "resolve range", `Quick, test_resolve_range;
    "ddl roundtrip", `Quick, test_ddl_roundtrip;
    "non-entity declarations", `Quick, test_non_entity_declarations;
    "ddl errors", `Quick, test_ddl_errors;
    "owner of function", `Quick, test_owner_of_function;
    "scaled rows", `Quick, test_scaled_rows;
    "scaled rows keep titles and ssn unique", `Quick, test_scaled_rows_unique;
  ]

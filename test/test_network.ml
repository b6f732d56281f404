(* Tests for the network data model: schema, DDL parser, CIT, UWA. *)

let sample_ddl =
  {|SCHEMA NAME IS sample

RECORD NAME IS department
  ITEM dname TYPE IS CHARACTER 20
  ITEM budget TYPE IS FIXED

RECORD NAME IS employee
  ITEM name TYPE IS CHARACTER 25
  ITEM salary TYPE IS FIXED
  ITEM rate TYPE IS FLOAT 8 2
  DUPLICATES ARE NOT ALLOWED FOR name

SET NAME IS system_department
  OWNER IS SYSTEM
  MEMBER IS department
  INSERTION IS AUTOMATIC
  RETENTION IS FIXED
  SET SELECTION IS BY APPLICATION

SET NAME IS works_in
  OWNER IS department
  MEMBER IS employee
  INSERTION IS MANUAL
  RETENTION IS OPTIONAL
  SET SELECTION IS BY APPLICATION
|}

let parse () = Network.Ddl_parser.schema sample_ddl

let test_ddl_parse () =
  let s = parse () in
  Alcotest.(check string) "name" "sample" s.Network.Schema.name;
  Alcotest.(check (list string)) "records" [ "department"; "employee" ]
    (Network.Schema.record_names s);
  Alcotest.(check (list string)) "sets" [ "system_department"; "works_in" ]
    (Network.Schema.set_names s);
  match Network.Schema.find_record s "employee" with
  | None -> Alcotest.fail "employee missing"
  | Some r ->
    let name_attr =
      match Network.Types.find_attribute r "name" with
      | Some a -> a
      | None -> Alcotest.fail "name attr missing"
    in
    Alcotest.(check bool) "dup flag cleared" false name_attr.attr_dup_allowed;
    Alcotest.(check int) "char length" 25 name_attr.attr_length;
    let rate =
      match Network.Types.find_attribute r "rate" with
      | Some a -> a
      | None -> Alcotest.fail "rate attr missing"
    in
    Alcotest.(check bool) "float type" true (rate.attr_type = Network.Types.A_float);
    Alcotest.(check int) "dec length" 2 rate.attr_dec_length

let test_ddl_set_modes () =
  let s = parse () in
  match Network.Schema.find_set s "works_in" with
  | None -> Alcotest.fail "works_in missing"
  | Some set ->
    Alcotest.(check string) "owner" "department" set.set_owner;
    Alcotest.(check string) "member" "employee" set.set_member;
    Alcotest.(check bool) "manual" true (set.set_insertion = Network.Types.Ins_manual);
    Alcotest.(check bool) "optional" true (set.set_retention = Network.Types.Ret_optional);
    Alcotest.(check bool) "by application" true
      (set.set_selection = Network.Types.Sel_by_application)

let test_ddl_roundtrip () =
  let s = parse () in
  let reparsed = Network.Ddl_parser.schema (Network.Schema.to_ddl s) in
  Alcotest.(check string) "ddl stable" (Network.Schema.to_ddl s)
    (Network.Schema.to_ddl reparsed)

let test_ddl_errors () =
  let bad src =
    match Network.Ddl_parser.schema src with
    | exception Network.Ddl_parser.Parse_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "missing schema name" true (bad "RECORD NAME IS x");
  Alcotest.(check bool) "item outside record" true
    (bad "SCHEMA NAME IS s\nITEM a TYPE IS FIXED");
  Alcotest.(check bool) "set missing member" true
    (bad "SCHEMA NAME IS s\nSET NAME IS w\nOWNER IS SYSTEM");
  Alcotest.(check bool) "unknown member record" true
    (bad
       "SCHEMA NAME IS s\nSET NAME IS w\nOWNER IS SYSTEM\nMEMBER IS ghost");
  (* a record may own a set it is also a member of (paper §II.B) *)
  Alcotest.(check bool) "self-owning set accepted" false
    (bad
       "SCHEMA NAME IS s\nRECORD NAME IS r\nSET NAME IS w\nOWNER IS r\nMEMBER IS r")

let test_schema_queries () =
  let s = parse () in
  Alcotest.(check int) "sets_with_member employee" 1
    (List.length (Network.Schema.sets_with_member s "employee"));
  Alcotest.(check int) "sets_with_owner department" 1
    (List.length (Network.Schema.sets_with_owner s "department"));
  Alcotest.(check bool) "find_set miss" true
    (Network.Schema.find_set s "nope" = None)

(* --- CIT ----------------------------------------------------------------- *)

let entry dbkey record_type = { Network.Currency.cur_dbkey = dbkey; cur_record_type = record_type }

let test_currency_run_unit () =
  let cit = Network.Currency.create () in
  Alcotest.(check bool) "initially null" true (Network.Currency.run_unit cit = None);
  Network.Currency.set_run_unit cit (entry 5 "employee");
  Alcotest.(check bool) "run unit set" true
    (Network.Currency.run_unit cit = Some (entry 5 "employee"));
  Alcotest.(check bool) "record currency set too" true
    (Network.Currency.record_current cit "employee" = Some (entry 5 "employee"))

let test_currency_sets () =
  let cit = Network.Currency.create () in
  Network.Currency.set_set_owner cit "works_in" 3;
  begin
    match Network.Currency.set_current cit "works_in" with
    | Some { cur_owner = Some 3; cur_member = None } -> ()
    | _ -> Alcotest.fail "owner set, member cleared"
  end;
  Network.Currency.set_set_member cit "works_in" (entry 9 "employee");
  begin
    match Network.Currency.set_current cit "works_in" with
    | Some { cur_owner = Some 3; cur_member = Some e } ->
      Alcotest.(check int) "member dbkey" 9 e.cur_dbkey
    | _ -> Alcotest.fail "member recorded"
  end;
  (* changing the owner occurrence clears the member position *)
  Network.Currency.set_set_owner cit "works_in" 4;
  match Network.Currency.set_current cit "works_in" with
  | Some { cur_owner = Some 4; cur_member = None } -> ()
  | _ -> Alcotest.fail "owner change resets member"

let test_currency_forget () =
  let cit = Network.Currency.create () in
  Network.Currency.set_run_unit cit (entry 5 "employee");
  Network.Currency.set_set_owner cit "works_in" 5;
  Network.Currency.set_set_member cit "works_in" (entry 5 "employee");
  Network.Currency.forget_key cit 5;
  Alcotest.(check bool) "run unit nulled" true (Network.Currency.run_unit cit = None);
  Alcotest.(check bool) "record currency nulled" true
    (Network.Currency.record_current cit "employee" = None);
  match Network.Currency.set_current cit "works_in" with
  | Some { cur_owner = None; cur_member = None } -> ()
  | _ -> Alcotest.fail "set indicators nulled"

let test_currency_to_string () =
  let cit = Network.Currency.create () in
  Network.Currency.set_run_unit cit (entry 7 "course");
  let text = Network.Currency.to_string cit in
  Alcotest.(check bool) "mentions run-unit" true
    (Daplex.Str_search.find text "course@7" <> None)

(* --- UWA ------------------------------------------------------------------ *)

let test_uwa () =
  let uwa = Network.Uwa.create () in
  Network.Uwa.move uwa ~record:"course" ~item:"title" (Abdm.Value.Str "DB");
  Network.Uwa.move uwa ~record:"course" ~item:"credits" (Abdm.Value.Int 4);
  Alcotest.(check bool) "get" true
    (Network.Uwa.get uwa ~record:"course" ~item:"title" = Some (Abdm.Value.Str "DB"));
  Network.Uwa.move uwa ~record:"course" ~item:"title" (Abdm.Value.Str "OS");
  Alcotest.(check bool) "overwrite" true
    (Network.Uwa.get uwa ~record:"course" ~item:"title" = Some (Abdm.Value.Str "OS"));
  Alcotest.(check int) "template size" 2
    (List.length (Network.Uwa.template uwa ~record:"course"));
  Network.Uwa.load uwa ~record:"course" [ "title", Abdm.Value.Str "X" ];
  Alcotest.(check int) "load replaces template" 1
    (List.length (Network.Uwa.template uwa ~record:"course"))

let suite =
  [
    "ddl parse", `Quick, test_ddl_parse;
    "ddl set modes", `Quick, test_ddl_set_modes;
    "ddl roundtrip", `Quick, test_ddl_roundtrip;
    "ddl errors", `Quick, test_ddl_errors;
    "schema queries", `Quick, test_schema_queries;
    "currency run unit", `Quick, test_currency_run_unit;
    "currency sets", `Quick, test_currency_sets;
    "currency forget", `Quick, test_currency_forget;
    "currency to_string", `Quick, test_currency_to_string;
    "uwa", `Quick, test_uwa;
  ]

let test_record_current_direct () =
  let cit = Network.Currency.create () in
  Network.Currency.set_record_current cit (entry 3 "course");
  Alcotest.(check bool) "record currency without run-unit" true
    (Network.Currency.record_current cit "course" = Some (entry 3 "course"));
  Alcotest.(check bool) "run-unit untouched" true
    (Network.Currency.run_unit cit = None);
  Network.Currency.clear cit;
  Alcotest.(check bool) "clear drops record currency" true
    (Network.Currency.record_current cit "course" = None)

let suite = suite @ [ "record currency direct", `Quick, test_record_current_direct ]

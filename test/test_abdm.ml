(* Unit and property tests for the ABDM kernel data model. *)

let value = Alcotest.testable Abdm.Value.pp Abdm.Value.equal

let record = Alcotest.testable Abdm.Record.pp Abdm.Record.equal

(* --- Value ------------------------------------------------------------- *)

let test_value_compare () =
  let open Abdm.Value in
  Alcotest.(check bool) "int eq" true (equal (Int 3) (Int 3));
  Alcotest.(check bool) "int/float cross eq" true (equal (Int 3) (Float 3.0));
  Alcotest.(check bool) "str lt" true (compare (Str "a") (Str "b") < 0);
  Alcotest.(check bool) "null smallest" true (compare Null (Int (-1000)) < 0);
  Alcotest.(check bool) "numeric below string" true (compare (Int 5) (Str "0") < 0);
  Alcotest.(check bool) "null eq null" true (equal Null Null)

let test_value_literals () =
  let open Abdm.Value in
  Alcotest.check value "int literal" (Int 42) (of_literal "42");
  Alcotest.check value "neg int" (Int (-7)) (of_literal "-7");
  Alcotest.check value "float literal" (Float 3.5) (of_literal "3.5");
  Alcotest.check value "string literal" (Str "abc") (of_literal "'abc'");
  Alcotest.check value "null literal" Null (of_literal "NULL");
  Alcotest.check value "null lowercase" Null (of_literal "null");
  Alcotest.(check bool) "bad literal raises" true
    (match of_literal "" with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_value_render () =
  let open Abdm.Value in
  Alcotest.(check string) "str render" "'x'" (to_string (Str "x"));
  Alcotest.(check string) "display unquoted" "x" (to_display (Str "x"));
  Alcotest.(check string) "null render" "NULL" (to_string Null);
  Alcotest.(check string) "float render" "2.5" (to_string (Float 2.5))

(* --- Keyword / Record -------------------------------------------------- *)

let test_keyword () =
  let kw = Abdm.Keyword.make "salary" (Abdm.Value.Int 100) in
  Alcotest.(check string) "render" "<salary, 100>" (Abdm.Keyword.to_string kw);
  let f = Abdm.Keyword.file "employee" in
  Alcotest.(check string) "file attr" "FILE" f.Abdm.Keyword.attribute;
  Alcotest.check value "file value" (Abdm.Value.Str "employee") f.Abdm.Keyword.value

let sample_record () =
  Abdm.Record.make
    [
      Abdm.Keyword.file "employee";
      Abdm.Keyword.make "name" (Abdm.Value.Str "Hsiao");
      Abdm.Keyword.make "salary" (Abdm.Value.Int 72000);
    ]

let test_record_basics () =
  let r = sample_record () in
  Alcotest.(check (option string)) "file" (Some "employee") (Abdm.Record.file r);
  Alcotest.check (Alcotest.option value) "value_of" (Some (Abdm.Value.Int 72000))
    (Abdm.Record.value_of r "salary");
  Alcotest.check (Alcotest.option value) "missing attr" None
    (Abdm.Record.value_of r "rank");
  Alcotest.(check (list string)) "attributes" [ "FILE"; "name"; "salary" ]
    (Abdm.Record.attributes r)

let test_record_set_remove () =
  let r = sample_record () in
  let r2 = Abdm.Record.set r "salary" (Abdm.Value.Int 80000) in
  Alcotest.check (Alcotest.option value) "set replaces" (Some (Abdm.Value.Int 80000))
    (Abdm.Record.value_of r2 "salary");
  let r3 = Abdm.Record.set r "rank" (Abdm.Value.Str "full") in
  Alcotest.check (Alcotest.option value) "set adds" (Some (Abdm.Value.Str "full"))
    (Abdm.Record.value_of r3 "rank");
  let r4 = Abdm.Record.remove r "salary" in
  Alcotest.check (Alcotest.option value) "remove drops" None
    (Abdm.Record.value_of r4 "salary");
  Alcotest.check record "original unchanged" (sample_record ()) r

let test_record_duplicate_attr () =
  Alcotest.(check bool) "duplicate attribute rejected" true
    (match
       Abdm.Record.make
         [ Abdm.Keyword.make "a" (Abdm.Value.Int 1);
           Abdm.Keyword.make "a" (Abdm.Value.Int 2) ]
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- Predicate / Query ------------------------------------------------- *)

let test_predicate_ops () =
  let open Abdm.Predicate in
  let r = sample_record () in
  let check name expected pred =
    Alcotest.(check bool) name expected (satisfied_by pred r)
  in
  check "eq hit" true (make "salary" Eq (Abdm.Value.Int 72000));
  check "eq cross-type" true (make "salary" Eq (Abdm.Value.Float 72000.));
  check "neq" true (make "salary" Neq (Abdm.Value.Int 0));
  check "lt" true (make "salary" Lt (Abdm.Value.Int 100000));
  check "le boundary" true (make "salary" Le (Abdm.Value.Int 72000));
  check "gt miss" false (make "salary" Gt (Abdm.Value.Int 72000));
  check "ge boundary" true (make "salary" Ge (Abdm.Value.Int 72000));
  check "missing attr never satisfies" false (make "rank" Eq Abdm.Value.Null);
  check "string eq" true (make "name" Eq (Abdm.Value.Str "Hsiao"))

let test_predicate_null_semantics () =
  let open Abdm.Predicate in
  let r =
    Abdm.Record.make
      [ Abdm.Keyword.file "f"; Abdm.Keyword.make "x" Abdm.Value.Null ]
  in
  Alcotest.(check bool) "null eq null" true
    (satisfied_by (make "x" Eq Abdm.Value.Null) r);
  Alcotest.(check bool) "null neq 1" true
    (satisfied_by (make "x" Neq (Abdm.Value.Int 1)) r);
  Alcotest.(check bool) "null not lt" false
    (satisfied_by (make "x" Lt (Abdm.Value.Int 1)) r);
  Alcotest.(check bool) "null not ge" false
    (satisfied_by (make "x" Ge Abdm.Value.Null) r)

let test_query_dnf () =
  let open Abdm in
  let r = sample_record () in
  let p_name = Predicate.make "name" Predicate.Eq (Value.Str "Hsiao") in
  let p_rich = Predicate.make "salary" Predicate.Gt (Value.Int 100000) in
  Alcotest.(check bool) "always" true (Query.satisfies Query.always r);
  Alcotest.(check bool) "never" false (Query.satisfies Query.never r);
  Alcotest.(check bool) "conj hit" true (Query.satisfies (Query.conj [ p_name ]) r);
  Alcotest.(check bool) "conj miss" false
    (Query.satisfies (Query.conj [ p_name; p_rich ]) r);
  Alcotest.(check bool) "disj hit" true
    (Query.satisfies (Query.disj [ Query.conj [ p_rich ]; Query.conj [ p_name ] ]) r);
  let a = Query.disj [ Query.conj [ p_name ]; Query.conj [ p_rich ] ] in
  let b = Query.conj [ Predicate.file_eq "employee" ] in
  Alcotest.(check bool) "conj_and = and of parts" true
    (Query.satisfies (Query.conj_and a b) r
     = (Query.satisfies a r && Query.satisfies b r))

let test_query_files () =
  let open Abdm in
  let q1 =
    Query.disj
      [
        Query.conj [ Predicate.file_eq "a" ];
        Query.conj [ Predicate.file_eq "b" ];
      ]
  in
  Alcotest.(check (option (list string))) "both named" (Some [ "a"; "b" ])
    (Query.files q1);
  let q2 =
    Query.disj
      [ Query.conj [ Predicate.file_eq "a" ];
        Query.conj [ Predicate.make "x" Predicate.Eq (Value.Int 1) ] ]
  in
  Alcotest.(check (option (list string))) "one unnamed" None (Query.files q2)

(* --- Modifier ----------------------------------------------------------- *)

let test_modifier () =
  let open Abdm in
  let r = sample_record () in
  let r2 = Modifier.apply (Modifier.Set_const ("salary", Value.Int 1)) r in
  Alcotest.check (Alcotest.option value) "set const" (Some (Value.Int 1))
    (Record.value_of r2 "salary");
  let r3 = Modifier.apply (Modifier.Set_arith ("salary", Modifier.Add, Value.Int 500)) r in
  Alcotest.check (Alcotest.option value) "arith add" (Some (Value.Int 72500))
    (Record.value_of r3 "salary");
  let r4 = Modifier.apply (Modifier.Set_arith ("name", Modifier.Add, Value.Int 1)) r in
  Alcotest.check (Alcotest.option value) "arith on string is no-op"
    (Some (Value.Str "Hsiao"))
    (Record.value_of r4 "name");
  let r5 = Modifier.apply (Modifier.Set_arith ("salary", Modifier.Div, Value.Int 2)) r in
  Alcotest.check (Alcotest.option value) "int div stays int" (Some (Value.Int 36000))
    (Record.value_of r5 "salary");
  let r6 = Modifier.apply (Modifier.Set_const ("salary", Value.Null)) r in
  Alcotest.check (Alcotest.option value) "null out" (Some Value.Null)
    (Record.value_of r6 "salary")

(* --- Store -------------------------------------------------------------- *)

let mk_store () = Abdm.Store.create ~name:"test" ()

let emp name salary =
  Abdm.Record.make
    [
      Abdm.Keyword.file "employee";
      Abdm.Keyword.make "name" (Abdm.Value.Str name);
      Abdm.Keyword.make "salary" (Abdm.Value.Int salary);
    ]

let test_store_insert_select () =
  let s = mk_store () in
  let k1 = Abdm.Store.insert s (emp "a" 10) in
  let k2 = Abdm.Store.insert s (emp "b" 20) in
  Alcotest.(check bool) "keys increase" true (k2 > k1);
  Alcotest.(check int) "size" 2 (Abdm.Store.size s);
  Alcotest.(check int) "count" 2 (Abdm.Store.count s "employee");
  let hits =
    Abdm.Store.select s
      (Abdm.Query.conj
         [ Abdm.Predicate.file_eq "employee";
           Abdm.Predicate.make "salary" Abdm.Predicate.Gt (Abdm.Value.Int 15) ])
  in
  Alcotest.(check int) "one hit" 1 (List.length hits);
  let k, r = List.hd hits in
  Alcotest.(check int) "hit key" k2 k;
  Alcotest.check (Alcotest.option value) "hit value" (Some (Abdm.Value.Str "b"))
    (Abdm.Record.value_of r "name")

let test_store_select_order () =
  let s = mk_store () in
  let keys = List.map (fun i -> Abdm.Store.insert s (emp "x" i)) [ 1; 2; 3; 4; 5 ] in
  let hits = Abdm.Store.select s (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ]) in
  Alcotest.(check (list int)) "ascending dbkey order" keys (List.map fst hits)

let test_store_delete_update () =
  let s = mk_store () in
  let _ = Abdm.Store.insert s (emp "a" 10) in
  let _ = Abdm.Store.insert s (emp "b" 20) in
  let _ = Abdm.Store.insert s (emp "c" 30) in
  let q v =
    Abdm.Query.conj
      [ Abdm.Predicate.file_eq "employee";
        Abdm.Predicate.make "salary" Abdm.Predicate.Ge (Abdm.Value.Int v) ]
  in
  let n = Abdm.Store.update s (q 20) [ Abdm.Modifier.Set_arith ("salary", Abdm.Modifier.Add, Abdm.Value.Int 1) ] in
  Alcotest.(check int) "updated 2" 2 n;
  let n = Abdm.Store.delete s (q 31) in
  Alcotest.(check int) "deleted 1" 1 n;
  Alcotest.(check int) "2 remain" 2 (Abdm.Store.size s)

let test_store_indexed_vs_scan () =
  (* index and scan paths must agree, including Int/Float key aliasing *)
  let s = mk_store () in
  let _ = Abdm.Store.insert s (emp "a" 10) in
  let _ =
    Abdm.Store.insert s
      (Abdm.Record.make
         [ Abdm.Keyword.file "employee";
           Abdm.Keyword.make "name" (Abdm.Value.Str "b");
           Abdm.Keyword.make "salary" (Abdm.Value.Float 10.0) ])
  in
  let q =
    Abdm.Query.conj
      [ Abdm.Predicate.file_eq "employee";
        Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int 10) ]
  in
  Alcotest.(check int) "both found via index" 2 (List.length (Abdm.Store.select s q));
  (* same query without FILE predicate: forces the scan path *)
  let q_scan =
    Abdm.Query.conj [ Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int 10) ]
  in
  Alcotest.(check int) "both found via scan" 2 (List.length (Abdm.Store.select s q_scan))

let test_store_insert_keyed () =
  let s = mk_store () in
  Abdm.Store.insert_keyed s 100 (emp "a" 10);
  Alcotest.(check bool) "dup key rejected" true
    (match Abdm.Store.insert_keyed s 100 (emp "b" 20) with
     | exception Invalid_argument _ -> true
     | () -> false);
  let k = Abdm.Store.insert s (emp "c" 30) in
  Alcotest.(check bool) "next key above explicit" true (k > 100)

let test_store_replace () =
  let s = mk_store () in
  let k = Abdm.Store.insert s (emp "a" 10) in
  Abdm.Store.replace s k (emp "a" 99);
  let q =
    Abdm.Query.conj
      [ Abdm.Predicate.file_eq "employee";
        Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int 99) ]
  in
  Alcotest.(check int) "replaced visible via index" 1
    (List.length (Abdm.Store.select s q));
  let q_old =
    Abdm.Query.conj
      [ Abdm.Predicate.file_eq "employee";
        Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int 10) ]
  in
  Alcotest.(check int) "old index entry gone" 0
    (List.length (Abdm.Store.select s q_old))

let test_store_clear () =
  let s = mk_store () in
  let _ = Abdm.Store.insert s (emp "a" 1) in
  Abdm.Store.clear s;
  Alcotest.(check int) "empty" 0 (Abdm.Store.size s);
  Alcotest.(check (list string)) "no files" [] (Abdm.Store.file_names s)

(* --- Descriptor --------------------------------------------------------- *)

let test_descriptor () =
  let open Abdm.Descriptor in
  let d =
    make "db"
    |> fun d ->
    add_file d
      {
        file_name = "employee";
        attributes =
          [
            { attr_name = "name"; attr_type = T_string; attr_length = 25; attr_unique = false };
            { attr_name = "salary"; attr_type = T_int; attr_length = 0; attr_unique = false };
          ];
      }
  in
  Alcotest.(check (list string)) "files" [ "employee" ] (file_names d);
  Alcotest.(check (list string)) "attrs" [ "name"; "salary" ]
    (attribute_names d "employee");
  Alcotest.(check bool) "valid record" true
    (validate d (emp "a" 10) = Ok ());
  let bad_type =
    Abdm.Record.make
      [ Abdm.Keyword.file "employee";
        Abdm.Keyword.make "salary" (Abdm.Value.Str "lots") ]
  in
  Alcotest.(check bool) "type mismatch caught" true
    (Result.is_error (validate d bad_type));
  let unknown_attr =
    Abdm.Record.make
      [ Abdm.Keyword.file "employee"; Abdm.Keyword.make "age" (Abdm.Value.Int 1) ]
  in
  Alcotest.(check bool) "unknown attr caught" true
    (Result.is_error (validate d unknown_attr));
  let unknown_file =
    Abdm.Record.make [ Abdm.Keyword.file "nobody" ]
  in
  Alcotest.(check bool) "unknown file caught" true
    (Result.is_error (validate d unknown_file));
  Alcotest.(check bool) "duplicate file rejected" true
    (match add_file d { file_name = "employee"; attributes = [] } with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- qcheck properties --------------------------------------------------- *)

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        map (fun i -> Abdm.Value.Int i) (int_range (-50) 50);
        map (fun f -> Abdm.Value.Float (float_of_int f /. 2.)) (int_range (-20) 20);
        map (fun s -> Abdm.Value.Str s) (string_size ~gen:printable (int_range 0 6));
        return Abdm.Value.Null;
      ])

let prop_compare_total_order =
  QCheck2.Test.make ~name:"Value.compare is antisymmetric and transitive"
    ~count:500
    QCheck2.Gen.(triple gen_value gen_value gen_value)
    (fun (a, b, c) ->
      let open Abdm.Value in
      let sign x = Stdlib.compare x 0 in
      sign (compare a b) = -sign (compare b a)
      && (not (compare a b <= 0 && compare b c <= 0) || compare a c <= 0))

(* Ints and floats where a float stands for several ints: around
   ±2^53, where floats are 2 apart, and ±2^62, the ends of [int]; NaN
   and the infinities. *)
let gen_wide_number =
  let open QCheck2.Gen in
  let p53 = 1 lsl 53 in
  let near n = map (fun d -> n + d) (int_range (-3) 3) in
  let ints =
    oneof
      [ near p53; near (-p53); map (fun d -> max_int - d) (int_range 0 3);
        map (fun d -> min_int + d) (int_range 0 3); int_range (-3) 3 ]
  in
  let floats =
    oneof
      [
        map float_of_int ints;
        map (fun d -> Float.of_int p53 +. float_of_int d) (int_range (-3) 3);
        map (fun f -> -.f)
          (oneofl [ 0x1p62; Float.pred 0x1p62; Float.succ 0x1p62; 0x1p53 ]);
        oneofl
          [ 0x1p62; Float.pred 0x1p62; Float.succ 0x1p62; Float.nan;
            Float.infinity; Float.neg_infinity; 0.5; -0.; 0x1p53 +. 2. ];
      ]
  in
  oneof
    [ map (fun i -> Abdm.Value.Int i) ints; map (fun f -> Abdm.Value.Float f) floats ]

let prop_compare_exact =
  QCheck2.Test.make
    ~name:"Value.compare is antisymmetric and transitive past 2^53" ~count:3000
    QCheck2.Gen.(triple gen_wide_number gen_wide_number gen_wide_number)
    (fun (a, b, c) ->
      let open Abdm.Value in
      let sign x = Stdlib.compare x 0 in
      sign (compare a b) = -sign (compare b a)
      && (not (compare a b <= 0 && compare b c <= 0) || compare a c <= 0)
      && (not (compare a b = 0 && compare b c = 0) || compare a c = 0))

let test_compare_exact () =
  let open Abdm.Value in
  let p53 = 1 lsl 53 in
  Alcotest.(check int) "2^53 + 1 above the float 2^53" 1
    (compare (Int (p53 + 1)) (Float 0x1p53));
  Alcotest.(check int) "the float 2^53 is the int 2^53" 0
    (compare (Float 0x1p53) (Int p53));
  Alcotest.(check int) "the float 2^62 above max_int" (-1)
    (compare (Int max_int) (Float 0x1p62));
  Alcotest.(check int) "the float -2^62 is min_int" 0
    (compare (Int min_int) (Float (-0x1p62)));
  Alcotest.(check int) "NaN below every int" 1 (compare (Int min_int) (Float Float.nan))

let prop_int_to_buffer =
  QCheck2.Test.make ~name:"Value.to_buffer of an Int = string_of_int" ~count:1000
    QCheck2.Gen.(
      oneof [ int; int_range (-1000) 1000; oneofl [ 0; 9; 10; -10; max_int; min_int ] ])
    (fun i ->
      let buf = Buffer.create 8 in
      Abdm.Value.to_buffer buf (Abdm.Value.Int i);
      String.equal (Buffer.contents buf) (string_of_int i))

let prop_eval_consistent_with_compare =
  QCheck2.Test.make ~name:"Predicate.eval agrees with Value.compare" ~count:500
    QCheck2.Gen.(pair gen_value gen_value)
    (fun (a, b) ->
      let open Abdm in
      let non_null = not (Value.is_null a) && not (Value.is_null b) in
      Predicate.eval Predicate.Eq a b = Value.equal a b
      && (not non_null
          || Predicate.eval Predicate.Lt a b = (Value.compare a b < 0)))

let prop_store_matches_model =
  (* The store with its index must agree with a naive list model. *)
  QCheck2.Test.make ~name:"Store.select agrees with a naive scan" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) (pair (int_range 0 5) (int_range 0 10)))
        (pair (int_range 0 5) (int_range 0 10)))
    (fun (inserts, (file_id, probe)) ->
      let store = Abdm.Store.create () in
      let model = ref [] in
      List.iter
        (fun (fid, v) ->
          let r =
            Abdm.Record.make
              [ Abdm.Keyword.file (Printf.sprintf "f%d" fid);
                Abdm.Keyword.make "x" (Abdm.Value.Int v) ]
          in
          let k = Abdm.Store.insert store r in
          model := (k, r) :: !model)
        inserts;
      let q =
        Abdm.Query.conj
          [ Abdm.Predicate.file_eq (Printf.sprintf "f%d" file_id);
            Abdm.Predicate.make "x" Abdm.Predicate.Eq (Abdm.Value.Int probe) ]
      in
      let got = Abdm.Store.select store q |> List.map fst in
      let want =
        List.rev !model
        |> List.filter (fun (_, r) -> Abdm.Query.satisfies q r)
        |> List.map fst
      in
      got = want)

let suite =
  [
    "value compare", `Quick, test_value_compare;
    "value literals", `Quick, test_value_literals;
    "value render", `Quick, test_value_render;
    "keyword", `Quick, test_keyword;
    "record basics", `Quick, test_record_basics;
    "record set/remove", `Quick, test_record_set_remove;
    "record duplicate attr", `Quick, test_record_duplicate_attr;
    "predicate ops", `Quick, test_predicate_ops;
    "predicate null semantics", `Quick, test_predicate_null_semantics;
    "query dnf", `Quick, test_query_dnf;
    "query files", `Quick, test_query_files;
    "modifier", `Quick, test_modifier;
    "store insert/select", `Quick, test_store_insert_select;
    "store select order", `Quick, test_store_select_order;
    "store delete/update", `Quick, test_store_delete_update;
    "store index vs scan", `Quick, test_store_indexed_vs_scan;
    "store insert_keyed", `Quick, test_store_insert_keyed;
    "store replace", `Quick, test_store_replace;
    "store clear", `Quick, test_store_clear;
    "descriptor", `Quick, test_descriptor;
    QCheck_alcotest.to_alcotest prop_compare_total_order;
    QCheck_alcotest.to_alcotest prop_eval_consistent_with_compare;
    QCheck_alcotest.to_alcotest prop_store_matches_model;
  ]

(* --- transactions ---------------------------------------------------------- *)

let snapshot s =
  Abdm.Store.select s Abdm.Query.always
  |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)

let test_transaction_commit () =
  let s = mk_store () in
  let _ = Abdm.Store.insert s (emp "a" 10) in
  Abdm.Store.begin_transaction s;
  Alcotest.(check bool) "in transaction" true (Abdm.Store.in_transaction s);
  let _ = Abdm.Store.insert s (emp "b" 20) in
  Abdm.Store.commit s;
  Alcotest.(check bool) "committed" false (Abdm.Store.in_transaction s);
  Alcotest.(check int) "both live" 2 (Abdm.Store.size s)

let test_transaction_rollback () =
  let s = mk_store () in
  let k1 = Abdm.Store.insert s (emp "a" 10) in
  let _ = Abdm.Store.insert s (emp "b" 20) in
  let before = snapshot s in
  Abdm.Store.begin_transaction s;
  let _ = Abdm.Store.insert s (emp "c" 30) in
  let _ =
    Abdm.Store.update s
      (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ])
      [ Abdm.Modifier.Set_arith ("salary", Abdm.Modifier.Add, Abdm.Value.Int 5) ]
  in
  let _ = Abdm.Store.delete_key s k1 in
  Abdm.Store.rollback s;
  Alcotest.(check bool) "state restored exactly" true (snapshot s = before);
  (* the index must agree after rollback *)
  let hits =
    Abdm.Store.select s
      (Abdm.Query.conj
         [ Abdm.Predicate.file_eq "employee";
           Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int 10) ])
  in
  Alcotest.(check (list int)) "index restored" [ k1 ] (List.map fst hits)

let test_transaction_nested_rejected () =
  let s = mk_store () in
  Abdm.Store.begin_transaction s;
  Alcotest.(check bool) "nested rejected" true
    (match Abdm.Store.begin_transaction s with
     | exception Invalid_argument _ -> true
     | () -> false);
  Abdm.Store.rollback s

let prop_rollback_restores_state =
  QCheck2.Test.make ~name:"rollback restores the exact pre-transaction state"
    ~count:150
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15) (pair (int_range 0 3) (int_range 0 8)))
        (list_size (int_range 0 15) (pair (int_range 0 3) (int_range 0 8))))
    (fun (setup_ops, tx_ops) ->
      let s = Abdm.Store.create () in
      let apply (op, v) =
        let record = emp (Printf.sprintf "n%d" v) v in
        let q =
          Abdm.Query.conj
            [ Abdm.Predicate.file_eq "employee";
              Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int v) ]
        in
        match op with
        | 0 | 1 -> ignore (Abdm.Store.insert s record)
        | 2 -> ignore (Abdm.Store.delete s q)
        | _ ->
          ignore
            (Abdm.Store.update s q
               [ Abdm.Modifier.Set_arith ("salary", Abdm.Modifier.Add, Abdm.Value.Int 1) ])
      in
      List.iter apply setup_ops;
      let before = snapshot s in
      Abdm.Store.begin_transaction s;
      List.iter apply tx_ops;
      Abdm.Store.rollback s;
      snapshot s = before)

let suite =
  suite
  @ [
      "transaction commit", `Quick, test_transaction_commit;
      "transaction rollback", `Quick, test_transaction_rollback;
      "nested transaction rejected", `Quick, test_transaction_nested_rejected;
      QCheck_alcotest.to_alcotest prop_rollback_restores_state;
    ]

let test_store_iter_and_files () =
  let s = mk_store () in
  let k1 = Abdm.Store.insert s (emp "a" 1) in
  let k2 = Abdm.Store.insert s (emp "b" 2) in
  let dept =
    Abdm.Record.make
      [ Abdm.Keyword.file "dept"; Abdm.Keyword.make "dname" (Abdm.Value.Str "cs") ]
  in
  let k3 = Abdm.Store.insert s dept in
  let before = Abdm.Store.to_seq s in
  ignore (Abdm.Store.insert s (emp "c" 3));
  Alcotest.(check (list int)) "ascending, as of the call" [ k1; k2; k3 ]
    (List.of_seq (Seq.map fst before));
  Alcotest.(check (list string)) "file names" [ "dept"; "employee" ]
    (Abdm.Store.file_names s);
  ignore (Abdm.Store.delete s (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ]));
  Alcotest.(check int) "employee empty" 0 (Abdm.Store.count s "employee");
  Alcotest.(check int) "dept intact" 1 (Abdm.Store.count s "dept")

let test_records_of_file_order () =
  let s = mk_store () in
  let keys = List.map (fun i -> Abdm.Store.insert s (emp "x" i)) [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "insertion order" keys
    (List.map fst (Abdm.Store.records_of_file s "employee"))

let suite =
  suite
  @ [
      "store iter and files", `Quick, test_store_iter_and_files;
      "records_of_file order", `Quick, test_records_of_file_order;
    ]

(* --- regressions: clear vs the undo journal, rollback vs the stats ---------- *)

let test_clear_drops_journal () =
  let s = mk_store () in
  let _ = Abdm.Store.insert s (emp "a" 1) in
  Abdm.Store.begin_transaction s;
  let _ = Abdm.Store.insert s (emp "b" 2) in
  ignore
    (Abdm.Store.delete s (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ]));
  Abdm.Store.clear s;
  (* the open transaction survives, over the now-empty store *)
  Alcotest.(check bool) "still in transaction" true (Abdm.Store.in_transaction s);
  Abdm.Store.rollback s;
  (* stale undo entries used to resurrect the deleted pre-clear records
     here, with keys below the reset next_key *)
  Alcotest.(check int) "rollback after clear resurrects nothing" 0
    (Abdm.Store.size s);
  let k = Abdm.Store.insert s (emp "c" 3) in
  Alcotest.(check int) "next_key restarts cleanly" 1 k;
  Alcotest.(check bool) "fresh insert live" true (Abdm.Store.get s k <> None)

let test_clear_resets_counters () =
  let s = mk_store () in
  let _ = Abdm.Store.insert s (emp "a" 1) in
  ignore
    (Abdm.Store.select s (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ]));
  ignore (Abdm.Store.select s Abdm.Query.always);
  Alcotest.(check bool) "records were read" true (Abdm.Store.scan_count s > 0);
  Abdm.Store.clear s;
  Alcotest.(check int) "scan count reset" 0 (Abdm.Store.scan_count s);
  Alcotest.(check int) "indexed selects reset" 0 (Abdm.Store.indexed_selects s);
  Alcotest.(check int) "scanned selects reset" 0 (Abdm.Store.scanned_selects s)

let test_rollback_leaves_stats_alone () =
  let s = mk_store () in
  let k1 = Abdm.Store.insert s (emp "a" 10) in
  Abdm.Store.begin_transaction s;
  ignore
    (Abdm.Store.update s
       (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ])
       [ Abdm.Modifier.Set_arith ("salary", Abdm.Modifier.Add, Abdm.Value.Int 5) ]);
  ignore (Abdm.Store.delete_key s k1);
  let tallies () =
    Abdm.Store.scan_count s, Abdm.Store.indexed_selects s,
    Abdm.Store.scanned_selects s
  in
  let before = tallies () in
  Abdm.Store.rollback s;
  (* undo replay is internal bookkeeping, not user requests: it reads no
     record and makes no selection *)
  Alcotest.(check (triple int int int)) "rollback adds no work" before
    (tallies ());
  Alcotest.(check bool) "state restored" true
    (Abdm.Store.get s k1 <> None)

let suite =
  suite
  @ [
      "clear drops the undo journal", `Quick, test_clear_drops_journal;
      "clear resets the counters", `Quick, test_clear_resets_counters;
      "rollback leaves the stats alone", `Quick,
      test_rollback_leaves_stats_alone;
    ]

(* --- the cost-based planner: golden .explain output and planner = scan ------ *)

(* Eight employees, salaries 10..80: small enough to pin cardinalities by
   hand, large enough that the [2 * card < file_rows] selectivity test
   has both outcomes. *)
let contains text needle = Daplex.Str_search.find text needle <> None

let mk_plan_store () =
  let s = Abdm.Store.create ~name:"plan" () in
  for i = 1 to 8 do
    ignore (Abdm.Store.insert s (emp (Printf.sprintf "e%d" i) (i * 10)))
  done;
  s

let q_emp preds = Abdm.Query.conj (Abdm.Predicate.file_eq "employee" :: preds)

let salary op v = Abdm.Predicate.make "salary" op (Abdm.Value.Int v)

let explained s q = Abdm.Plan.to_string (Abdm.Store.explain s q)

let check_plan msg want s q = Alcotest.(check string) msg want (explained s q)

let test_explain_golden_point () =
  let s = mk_plan_store () in
  let q = q_emp [ salary Abdm.Predicate.Eq 30 ] in
  let cold =
    "plan: 1 disjunct\n\
     disjunct 1: (FILE = 'employee') AND (salary = 30)\n\
    \  access: scan file employee [8 rows]\n\
    \  residual: (salary = 30)"
  in
  check_plan "cold store plans a file scan" cold s q;
  (* explain is pure: explaining must not build the index *)
  for _ = 1 to 5 do
    check_plan "explain does not build the index" cold s q
  done;
  ignore (Abdm.Store.select s q);
  check_plan "one select builds the index"
    "plan: 1 disjunct\n\
     disjunct 1: (FILE = 'employee') AND (salary = 30)\n\
    \  access: index employee: point (salary = 30) [1] -> 1 of 8 rows\n\
    \  residual: none"
    s q

let test_explain_golden_range_and_flip () =
  let s = mk_plan_store () in
  ignore (Abdm.Store.select s (q_emp [ salary Abdm.Predicate.Ge 60 ]));
  (* 3 of 8 rows: 2*3 < 8, so the ordered index wins *)
  check_plan "selective range uses the ordered index"
    "plan: 1 disjunct\n\
     disjunct 1: (FILE = 'employee') AND (salary >= 60)\n\
    \  access: index employee: range (salary >= 60) [3] -> 3 of 8 rows\n\
    \  residual: none"
    s
    (q_emp [ salary Abdm.Predicate.Ge 60 ]);
  (* 7 of 8 rows: 2*7 >= 8, so the same built index is rejected and the
     planner flips back to the file scan, re-checking the predicate *)
  check_plan "unselective range flips back to the file scan"
    "plan: 1 disjunct\n\
     disjunct 1: (FILE = 'employee') AND (salary >= 20)\n\
    \  access: scan file employee [8 rows]\n\
    \  residual: (salary >= 20)"
    s
    (q_emp [ salary Abdm.Predicate.Ge 20 ])

let test_explain_golden_intersection () =
  let s = mk_plan_store () in
  let q =
    q_emp
      [ Abdm.Predicate.make "name" Abdm.Predicate.Eq (Abdm.Value.Str "e6");
        salary Abdm.Predicate.Ge 60 ]
  in
  ignore (Abdm.Store.select s q);
  check_plan "selective probes intersect, smallest posting first"
    "plan: 1 disjunct\n\
     disjunct 1: (FILE = 'employee') AND (name = 'e6') AND (salary >= 60)\n\
    \  access: index employee: point (name = 'e6') [1] ^ range (salary >= \
     60) [3] -> 1 of 8 rows\n\
    \  residual: none"
    s q

let test_explain_golden_window () =
  let s = mk_plan_store () in
  let q = q_emp [ salary Abdm.Predicate.Ge 30; salary Abdm.Predicate.Le 50 ] in
  ignore (Abdm.Store.select s q);
  (* each bound alone keeps 6 and 5 of 8 rows, too many for the index;
     together they keep 3, read as one window *)
  check_plan "a lower and an upper bound are one window probe"
    "plan: 1 disjunct\n\
     disjunct 1: (FILE = 'employee') AND (salary >= 30) AND (salary <= 50)\n\
    \  access: index employee: window (salary >= 30) AND (salary <= 50) [3] \
     -> 3 of 8 rows\n\
    \  residual: none"
    s q;
  Alcotest.(check (list int)) "the window's rows" [ 3; 4; 5 ]
    (List.map fst (Abdm.Store.select s q))

let test_explain_golden_store_scan_and_empty () =
  let s = mk_plan_store () in
  check_plan "no FILE predicate means a whole-store scan"
    "plan: 2 disjuncts\n\
     disjunct 1: (salary = 30)\n\
    \  access: scan store [8 rows]\n\
    \  residual: (salary = 30)\n\
     disjunct 2: (FILE = 'employee') AND (salary = 40)\n\
    \  access: scan file employee [8 rows]\n\
    \  residual: (salary = 40)"
    s
    (Abdm.Query.disj
       [ Abdm.Query.conj [ salary Abdm.Predicate.Eq 30 ];
         q_emp [ salary Abdm.Predicate.Eq 40 ] ]);
  check_plan "the empty disjunction matches nothing"
    "plan: empty query (matches nothing)" s Abdm.Query.never

(* An index is built at the first select that wants it, and only then;
   a query whose range is too wide to use the index still builds it (the
   policy's known cost), and the planner flips away from it. *)
let test_planner_first_miss_builds () =
  let builds = Obs.Metrics.counter "abdm.plan.auto_index" in
  let built_by f =
    let b0 = Obs.Metrics.counter_value builds in
    ignore (f ());
    Obs.Metrics.counter_value builds - b0
  in
  let plans s q want = Alcotest.(check bool) want true (contains (explained s q) want) in
  let file_scan = "scan file employee [8 rows]" in
  let s = mk_plan_store () in
  let q = q_emp [ salary Abdm.Predicate.Eq 30 ] in
  plans s q file_scan;
  Alcotest.(check int) "the first select builds the index" 1
    (built_by (fun () -> Abdm.Store.select s q));
  plans s q "index employee: point (salary = 30) [1] -> 1 of 8 rows";
  Alcotest.(check int) "the next select builds nothing" 0
    (built_by (fun () -> Abdm.Store.select s q));
  (* 7 of 8 rows: 2*7 >= 8, so the index this select builds is unused *)
  let s = mk_plan_store () in
  let wide = q_emp [ salary Abdm.Predicate.Ge 20 ] in
  Alcotest.(check int) "an unselective range builds its index" 1
    (built_by (fun () -> Abdm.Store.select s wide));
  plans s wide file_scan;
  let narrow = q_emp [ salary Abdm.Predicate.Ge 60 ] in
  plans s narrow "index employee: range (salary >= 60) [3] -> 3 of 8 rows"

let gen_plan_op =
  QCheck2.Gen.oneofl
    Abdm.Predicate.[ Eq; Neq; Lt; Le; Gt; Ge ]

(* Values for the planner property: [gen_value], or one of a few small
   numbers, so that bounds often fall on stored values and a window's
   edges are exercised. *)
let gen_plan_value =
  QCheck2.Gen.(
    frequency
      [ 1, gen_value;
        2, map (fun i -> Abdm.Value.Int i) (int_range 0 6);
        1, map (fun i -> Abdm.Value.Float (float_of_int i)) (int_range 0 6) ])

(* A DNF query over FILE, x and y: each disjunct optionally names a file
   and carries up to three predicates with arbitrary comparison ops, or
   names a file and bounds x (or y) on both sides — a window — with
   sometimes a further predicate. *)
let gen_plan_query =
  QCheck2.Gen.(
    let pred = triple (oneofl [ "x"; "y" ]) gen_plan_op gen_value in
    let window =
      let* attr = oneofl [ "x"; "y" ] in
      let* lo = oneofl Abdm.Predicate.[ Gt; Ge ] and* hi = oneofl Abdm.Predicate.[ Lt; Le ] in
      let* a = gen_plan_value and* b = gen_plan_value in
      let* extra = list_size (int_range 0 1) pred in
      let* upper_first = bool in
      let bounds = [ attr, lo, a; attr, hi, b ] in
      pure
        ( Some 0,
          (if upper_first then List.rev bounds else bounds) @ extra )
    in
    list_size (int_range 0 3)
      (frequency
         [ 3, pair (option (int_range 0 3)) (list_size (int_range 0 3) pred); 1, window ]))

let prop_planner_matches_scan =
  (* The planner must be invisible: for any store contents and any DNF
     query, an indexing store (its first select builds every index it
     wants) returns exactly the keys a pure-scan
     store returns — before indexes exist, after they are built, and
     after deletions have to maintain them. *)
  QCheck2.Test.make ~name:"planner select = unindexed scan on random DNF"
    ~count:150
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40)
           (triple (int_range 0 3) gen_plan_value gen_plan_value))
        gen_plan_query)
    (fun (inserts, spec) ->
      let planned = Abdm.Store.create () in
      let scanned = Abdm.Store.create ~indexed:false () in
      List.iter
        (fun (fid, vx, vy) ->
          let r =
            Abdm.Record.make
              [ Abdm.Keyword.file (Printf.sprintf "f%d" fid);
                Abdm.Keyword.make "x" vx; Abdm.Keyword.make "y" vy ]
          in
          ignore (Abdm.Store.insert planned r);
          ignore (Abdm.Store.insert scanned r))
        inserts;
      let query =
        List.map
          (fun (file_id, preds) ->
            (match file_id with
             | None -> []
             | Some fid -> [ Abdm.Predicate.file_eq (Printf.sprintf "f%d" fid) ])
            @ List.map (fun (a, op, v) -> Abdm.Predicate.make a op v) preds)
          spec
      in
      let keys store = Abdm.Store.select store query |> List.map fst in
      let want = keys scanned in
      let cold = keys planned in
      let warm = keys planned in
      (* delete through the first disjunct, then compare again: index
         maintenance under removal must not strand stale postings *)
      let victim =
        match query with [] -> Abdm.Query.never | c :: _ -> [ c ]
      in
      let d_planned = Abdm.Store.delete planned victim in
      let d_scanned = Abdm.Store.delete scanned victim in
      cold = want && warm = want
      && d_planned = d_scanned
      && keys planned = keys scanned)

(* --- Store.exists = select <> [] ----------------------------------------- *)

(* Few distinct numbers, so Int 2 meets Float 2.0, and Null among them. *)
let gen_probe_value =
  QCheck2.Gen.oneofl
    Abdm.Value.
      [ Null; Int 0; Int 1; Int 2; Float 1.0; Float 2.0; Float 2.5; Str "x" ]

(* A record of file f0 or f1 with [a] and [b] each present or absent, in
   either order, so records of one file come in several shapes. *)
let gen_probe_record =
  let open QCheck2.Gen in
  let* file = int_range 0 1 in
  let* a = opt gen_probe_value in
  let* b = opt gen_probe_value in
  let* b_first = bool in
  let kw attr = Option.map (Abdm.Keyword.make attr) in
  let kws = if b_first then [ kw "b" b; kw "a" a ] else [ kw "a" a; kw "b" b ] in
  pure
    (Abdm.Record.make
       (Abdm.Keyword.file (Printf.sprintf "f%d" file) :: List.filter_map Fun.id kws))

(* Mostly the UNIQUE probe's shape, (FILE = f) AND (attr = v); also the
   shapes [exists] hands to [select]: a residual Neq, two equalities, no
   FILE, a range, two disjuncts. *)
let gen_probe_query =
  let open QCheck2.Gen in
  let* file = map (Printf.sprintf "f%d") (int_range 0 1) in
  let* attr = oneofl [ "a"; "b" ] in
  let* v = gen_probe_value and* w = gen_probe_value in
  let p op attr v = Abdm.Predicate.make attr op v in
  let point = [ Abdm.Predicate.file_eq file; p Abdm.Predicate.Eq attr v ] in
  frequency
    [
      (6, pure (Abdm.Query.conj point));
      (1, pure (Abdm.Query.conj (point @ [ p Abdm.Predicate.Neq "b" w ])));
      (1, pure (Abdm.Query.conj (point @ [ p Abdm.Predicate.Eq "b" w ])));
      (1, pure (Abdm.Query.conj [ p Abdm.Predicate.Eq attr v ]));
      (1, pure (Abdm.Query.conj [ Abdm.Predicate.file_eq file; p Abdm.Predicate.Lt attr v ]));
      ( 1,
        pure
          (Abdm.Query.disj
             [ Abdm.Query.conj point;
               Abdm.Query.conj [ Abdm.Predicate.file_eq "f1"; p Abdm.Predicate.Eq "b" w ] ]) );
    ]

type probe_op =
  | Probe of Abdm.Query.t
  | Insert of Abdm.Record.t
  | Delete of Abdm.Query.t

let gen_probe_ops =
  let open QCheck2.Gen in
  list_size (int_range 1 40)
    (frequency
       [
         (6, map (fun q -> Probe q) gen_probe_query);
         (2, map (fun r -> Insert r) gen_probe_record);
         (1, map (fun q -> Delete q) gen_probe_query);
       ])

let plan_counters =
  List.map Obs.Metrics.counter
    [ "abdm.plan.index"; "abdm.plan.file_scan"; "abdm.plan.store_scan";
      "abdm.plan.postings_intersected"; "abdm.plan.auto_index" ]

let residual = Obs.Metrics.histogram "abdm.plan.residual_ratio"

(* What one probe leaves behind in [store] and the process-wide tallies. *)
let probe_effects store f =
  let tallies () =
    ( Abdm.Store.scan_count store,
      Abdm.Store.indexed_selects store,
      Abdm.Store.scanned_selects store,
      List.map Obs.Metrics.counter_value plan_counters
      @ [ Obs.Metrics.histogram_count residual ] )
  in
  let s0, i0, f0, c0 = tallies () in
  let answer = f () in
  let s1, i1, f1, c1 = tallies () in
  answer, (s1 - s0, i1 - i0, f1 - f0, List.map2 ( - ) c1 c0)

(* Two stores fed the same records and the same operations: at each
   probe, [exists] on one and [select <> []] on the other give the same
   answer and the same tallies, and leave the same plans (built indexes)
   behind. A store's first probe of an attribute builds its index, later
   ones find it built. *)
let prop_exists_is_select =
  QCheck2.Test.make ~name:"Store.exists = select <> [], same tallies" ~count:300
    QCheck2.Gen.(pair (list_size (int_range 0 30) gen_probe_record) gen_probe_ops)
    (fun (records, ops) ->
      let fresh () =
        let s = Abdm.Store.create () in
        List.iter (fun r -> ignore (Abdm.Store.insert s r)) records;
        s
      in
      let probed = fresh () and selected = fresh () in
      let plans q s = Abdm.Plan.to_string (Abdm.Store.explain s q) in
      List.for_all
        (function
          | Probe q ->
            let got = probe_effects probed (fun () -> Abdm.Store.exists probed q) in
            let want =
              probe_effects selected (fun () -> Abdm.Store.select selected q <> [])
            in
            got = want && plans q probed = plans q selected
          | Insert r ->
            ignore (Abdm.Store.insert probed r);
            ignore (Abdm.Store.insert selected r);
            true
          | Delete q -> Abdm.Store.delete probed q = Abdm.Store.delete selected q)
        ops)

(* The duplicate check reports the first keyword whose attribute came
   before it, in short and long records alike. *)
let test_record_duplicate_message () =
  let kw i = Abdm.Keyword.make (Printf.sprintf "k%d" i) (Abdm.Value.Int i) in
  let raises what expected keywords =
    Alcotest.check_raises what (Invalid_argument expected) (fun () ->
        ignore (Abdm.Record.make keywords))
  in
  raises "2 keywords" "Record.make: duplicate attribute \"k0\"" [ kw 0; kw 0 ];
  raises "64 keywords, last repeats one"
    "Record.make: duplicate attribute \"k17\""
    (List.init 63 kw @ [ kw 17 ]);
  raises "64 keywords, two repeats: the earlier repeat is named"
    "Record.make: duplicate attribute \"k5\""
    (List.init 30 kw @ [ kw 5 ] @ List.init 32 (fun i -> kw (30 + i)) @ [ kw 2 ]);
  Alcotest.(check int) "64 distinct keywords accepted" 64
    (List.length (Abdm.Record.attributes (Abdm.Record.make (List.init 64 kw))))

(* --- the record layout ------------------------------------------------------ *)

(* Records a store holds share their file's shape, whoever built them;
   [set] on an existing attribute keeps the shape. *)
let test_record_shapes_shared () =
  let s = Abdm.Store.create () in
  let rec_ i =
    Abdm.Record.make
      [ Abdm.Keyword.file "t"; Abdm.Keyword.make "a" (Abdm.Value.Int i);
        Abdm.Keyword.make "b" (Abdm.Value.Str "x") ]
  in
  let k1 = Abdm.Store.insert s (rec_ 1) and k2 = Abdm.Store.insert s (rec_ 2) in
  let shape k = Abdm.Record.shape_of (Option.get (Abdm.Store.get s k)) in
  Alcotest.(check bool) "two ABDL-built records, one shape" true (shape k1 == shape k2);
  let r = Option.get (Abdm.Store.get s k1) in
  let r' = Abdm.Record.set r "a" (Abdm.Value.Int 9) in
  Alcotest.(check bool) "set keeps the shape" true (Abdm.Record.shape_of r' == shape k1);
  Abdm.Store.replace s k1 (Abdm.Record.make [ Abdm.Keyword.file "t"; Abdm.Keyword.make "a" (Abdm.Value.Int 3); Abdm.Keyword.make "b" Abdm.Value.Null ]);
  Alcotest.(check bool) "a replaced record takes the file's shape" true (shape k1 == shape k2);
  Alcotest.(check bool) "values kept" true
    (Abdm.Record.value_of (Option.get (Abdm.Store.get s k1)) "a" = Some (Abdm.Value.Int 3))

(* The record operations against a keyword list, the layout they
   replaced. *)
let prop_record_matches_keyword_list =
  let open QCheck2.Gen in
  let attr = oneofl [ "FILE"; "a"; "b"; "c"; "d" ] in
  let op =
    oneof
      [ map2 (fun a v -> `Set (a, v)) attr gen_value; map (fun a -> `Remove a) attr ]
  in
  let start =
    map
      (fun vs -> List.mapi (fun i v -> Printf.sprintf "k%d" i, v) vs)
      (list_size (int_range 0 4) gen_value)
  in
  QCheck2.Test.make ~name:"record operations = keyword-list model" ~count:300
    (pair start (list_size (int_range 0 8) op))
    (fun (start, ops) ->
      let apply (r, model) = function
        | `Set (a, v) ->
          ( Abdm.Record.set r a v,
            if List.mem_assoc a model then
              List.map (fun (a', v') -> a', if a' = a then v else v') model
            else model @ [ a, v ] )
        | `Remove a -> Abdm.Record.remove r a, List.remove_assoc a model
      in
      let r0 = Abdm.Record.make (List.map (fun (a, v) -> Abdm.Keyword.make a v) start) in
      let r, model = List.fold_left apply (r0, start) ops in
      let as_record m = Abdm.Record.make (List.map (fun (a, v) -> Abdm.Keyword.make a v) m) in
      Abdm.Record.attributes r = List.map fst model
      && List.for_all (fun a -> Abdm.Record.value_of r a = List.assoc_opt a model) [ "FILE"; "a"; "b"; "e"; "k0" ]
      && Abdm.Record.equal r (as_record model)
      && String.equal (Abdm.Record.to_string r)
           ("(" ^ String.concat ", " (List.map (fun (a, v) -> Abdm.Keyword.to_string (Abdm.Keyword.make a v)) model) ^ ")")
      && Abdm.Record.fold (fun acc a v -> (a, v) :: acc) [] r = List.rev model)

let suite =
  suite
  @ [
      "explain golden: point index", `Quick, test_explain_golden_point;
      "explain golden: range and selectivity flip", `Quick,
      test_explain_golden_range_and_flip;
      "explain golden: probe intersection", `Quick,
      test_explain_golden_intersection;
      "explain golden: store scan and empty query", `Quick,
      test_explain_golden_store_scan_and_empty;
      "planner builds an index at its first miss", `Quick, test_planner_first_miss_builds;
      QCheck_alcotest.to_alcotest prop_planner_matches_scan;
      QCheck_alcotest.to_alcotest prop_exists_is_select;
      QCheck_alcotest.to_alcotest prop_int_to_buffer;
      "explain golden: two-sided range window", `Quick, test_explain_golden_window;
      "records of a file share one shape", `Quick, test_record_shapes_shared;
      "record duplicate message, 2 and 64 keywords", `Quick,
      test_record_duplicate_message;
      QCheck_alcotest.to_alcotest prop_record_matches_keyword_list;
      "value compare: Int against Float is exact", `Quick, test_compare_exact;
      QCheck_alcotest.to_alcotest prop_compare_exact;
    ]

(* --- Store = the two-map store ----------------------------------------------- *)

(* What the equivalence property drives: [Abdm.Store]'s interface, which
   the two-map store of [Store_oracle] also has, but for [create]: the
   oracle's takes an auto-index threshold. *)
module type STORE = sig
  type t

  val insert : t -> Abdm.Record.t -> int
  val insert_keyed : t -> int -> Abdm.Record.t -> unit
  val get : t -> int -> Abdm.Record.t option
  val select : t -> Abdm.Query.t -> (int * Abdm.Record.t) list
  val exists : t -> Abdm.Query.t -> bool
  val explain : t -> Abdm.Query.t -> Abdm.Plan.t
  val delete : t -> Abdm.Query.t -> int
  val delete_key : t -> int -> bool
  val update : t -> Abdm.Query.t -> Abdm.Modifier.t list -> int
  val replace : t -> int -> Abdm.Record.t -> unit
  val records_of_file : t -> string -> (int * Abdm.Record.t) list
  val file_names : t -> string list
  val count : t -> string -> int
  val size : t -> int
  val clear : t -> unit
  val to_seq : t -> (int * Abdm.Record.t) Seq.t
  val next_key : t -> int
  val scan_count : t -> int
  val indexed_selects : t -> int
  val scanned_selects : t -> int
  val begin_transaction : t -> unit
  val commit : t -> unit
  val rollback : t -> unit
  val in_transaction : t -> bool
end

type store_op =
  | Op_insert of Abdm.Record.t
  | Op_insert_keyed of int * Abdm.Record.t
  | Op_replace of int * Abdm.Record.t
  | Op_delete of Abdm.Query.t
  | Op_delete_key of int
  | Op_update of Abdm.Query.t * Abdm.Modifier.t
  | Op_select of Abdm.Query.t
  | Op_exists of Abdm.Query.t
  | Op_clear
  | Op_begin
  | Op_commit
  | Op_rollback

let store_op_to_string = function
  | Op_insert r -> "insert " ^ Abdm.Record.to_string r
  | Op_insert_keyed (k, r) -> Printf.sprintf "insert_keyed %d %s" k (Abdm.Record.to_string r)
  | Op_replace (k, r) -> Printf.sprintf "replace %d %s" k (Abdm.Record.to_string r)
  | Op_delete q -> "delete " ^ Abdm.Query.to_string q
  | Op_delete_key k -> Printf.sprintf "delete_key %d" k
  | Op_update (q, m) -> Printf.sprintf "update %s %s" (Abdm.Query.to_string q) (Abdm.Modifier.to_string m)
  | Op_select q -> "select " ^ Abdm.Query.to_string q
  | Op_exists q -> "exists " ^ Abdm.Query.to_string q
  | Op_clear -> "clear"
  | Op_begin -> "begin"
  | Op_commit -> "commit"
  | Op_rollback -> "rollback"

(* The planner's process-wide tallies, read around each operation: both
   stores bump the same instruments, so each store's share is the
   difference across its own call. *)
let plan_tallies () =
  let counters =
    [ "abdm.select.indexed"; "abdm.select.scan"; "abdm.plan.index"; "abdm.plan.file_scan";
      "abdm.plan.store_scan"; "abdm.plan.postings_intersected"; "abdm.plan.auto_index" ]
  in
  let residual = Obs.Metrics.histogram_stats (Obs.Metrics.histogram "abdm.plan.residual_ratio") in
  List.map (fun c -> Obs.Metrics.counter_value (Obs.Metrics.counter c)) counters, residual.n, residual.sum

(* One operation's observables, as lines: its result (or the exception it
   raised), the tallies it moved, then the whole store as every reader
   sees it. *)
module Store_script (S : STORE) = struct
  let rows rs =
    String.concat " " (List.map (fun (k, r) -> Printf.sprintf "%d%s" k (Abdm.Record.to_string r)) rs)

  let run s = function
    | Op_insert r -> string_of_int (S.insert s r)
    | Op_insert_keyed (k, r) -> S.insert_keyed s k r; "()"
    | Op_replace (k, r) -> S.replace s k r; "()"
    | Op_delete q -> string_of_int (S.delete s q)
    | Op_delete_key k -> string_of_bool (S.delete_key s k)
    | Op_update (q, m) -> string_of_int (S.update s q [ m ])
    | Op_select q -> Abdm.Plan.to_string (S.explain s q) ^ " -> " ^ rows (S.select s q)
    | Op_exists q -> string_of_bool (S.exists s q)
    | Op_clear -> S.clear s; "()"
    | Op_begin -> S.begin_transaction s; "()"
    | Op_commit -> S.commit s; "()"
    | Op_rollback -> S.rollback s; "()"

  let step s op =
    let counters0, n0, sum0 = plan_tallies () in
    let result = match run s op with r -> r | exception e -> "raised " ^ Printexc.to_string e in
    let counters1, n1, sum1 = plan_tallies () in
    let files = [ "f0"; "f1"; "f2"; "f3"; "f4" ] in
    [ "result " ^ result;
      "tallies "
      ^ String.concat "," (List.map2 (fun a b -> string_of_int (b - a)) counters0 counters1)
      ^ Printf.sprintf " residual %d %.9f" (n1 - n0) (sum1 -. sum0);
      "get "
      ^ String.concat ";"
          (List.init (S.next_key s + 2) (fun k ->
               Option.fold ~none:"-" ~some:Abdm.Record.to_string (S.get s k)));
      "to_seq " ^ rows (List.of_seq (S.to_seq s));
      "files " ^ String.concat "," (S.file_names s);
      Printf.sprintf "size %d next %d scans %d selects %d/%d tx %b" (S.size s) (S.next_key s)
        (S.scan_count s) (S.indexed_selects s) (S.scanned_selects s) (S.in_transaction s) ]
    @ List.map
        (fun f -> Printf.sprintf "%s %d: %s" f (S.count s f) (rows (S.records_of_file s f)))
        files
end

module Script_new = Store_script (Abdm.Store)
module Script_old = Store_script (Store_oracle)

(* Scripts over files f0..f3: inserts, keyed inserts and replaces below
   the next key (live or not, so some raise), replaces that move a record
   to another file, deletes, updates (one sets FILE), selects and exists
   under the planner's random DNF, clears and transactions. A select
   builds the indexes it wants (the oracle runs at threshold 1, a build
   at the first planner miss), which later writes must maintain. *)
let gen_store_script =
  let open QCheck2.Gen in
  let record =
    let* file = int_range 0 3 and* x = gen_plan_value and* y = opt gen_plan_value in
    pure
      (Abdm.Record.make
         (Abdm.Keyword.file (Printf.sprintf "f%d" file)
          :: Abdm.Keyword.make "x" x
          :: Option.to_list (Option.map (Abdm.Keyword.make "y") y)))
  in
  let query =
    map
      (List.map (fun (file_id, preds) ->
           (match file_id with
            | None -> []
            | Some fid -> [ Abdm.Predicate.file_eq (Printf.sprintf "f%d" fid) ])
           @ List.map (fun (a, op, v) -> Abdm.Predicate.make a op v) preds))
      gen_plan_query
  in
  let modifier =
    oneof
      [ map (fun v -> Abdm.Modifier.Set_const ("x", v)) gen_plan_value;
        pure (Abdm.Modifier.Set_arith ("y", Abdm.Modifier.Add, Abdm.Value.Int 1));
        map
          (fun f -> Abdm.Modifier.Set_const ("FILE", Abdm.Value.Str (Printf.sprintf "f%d" f)))
          (int_range 0 3) ]
  in
  let key = int_range 0 30 in
  list_size (int_range 1 40)
    (frequency
       [ 6, map (fun r -> Op_insert r) record;
         2, map2 (fun k r -> Op_insert_keyed (k, r)) key record;
         2, map2 (fun k r -> Op_replace (k, r)) key record;
         1, map (fun q -> Op_delete q) query;
         1, map (fun k -> Op_delete_key k) key;
         1, map2 (fun q m -> Op_update (q, m)) query modifier;
         5, map (fun q -> Op_select q) query;
         2, map (fun q -> Op_exists q) query;
         1, pure Op_clear;
         1, pure Op_begin;
         1, pure Op_commit;
         1, pure Op_rollback ])

let prop_store_is_two_map_store =
  QCheck2.Test.make ~name:"store = the two-map store on random scripts" ~count:300
    ~print:(fun ops -> String.concat "\n" (List.map store_op_to_string ops))
    gen_store_script
    (fun ops ->
      let s_new = Abdm.Store.create () in
      let s_old = Store_oracle.create ~auto_index_threshold:1 () in
      List.iteri
        (fun i op ->
          let a = Script_new.step s_new op and b = Script_old.step s_old op in
          List.iter2
            (fun a b ->
              if a <> b then
                QCheck2.Test.fail_reportf "op %d (%s):\n  store:   %s\n  two-map: %s" i
                  (store_op_to_string op) a b)
            a b)
        ops;
      true)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_store_is_two_map_store ]

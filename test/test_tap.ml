(* The kernel request tap (Mapping.Kernel.collect) and the one
   whole-record retrieve (Mapping.Kernel.select) behind it.

   - select equals the rows of RETRIEVE (q) (ALL) rebuilt into records
     (the engines' old helper, kept as [Retrieve_oracle]), order
     included, on a single store and on a 2-backend MBDS;
   - a point read in each of the five languages, submitted through
     Mlds.System, issues selective RETRIEVEs only: one, except Daplex,
     whose PRINT fetches the selected instance by key;
   - collect keeps one request per run, select and insert_unique, none
     for key-addressed calls, and leaves no collector behind when its
     statement raises or returns Error. *)

(* --- select = RETRIEVE (ALL) rows rebuilt ------------------------------- *)

let university backends =
  let kernel, _, _ = Mapping.Loader.university ~backends () in
  kernel

let clinic backends =
  let kernel =
    if backends = 0 then Mapping.Kernel.single ()
    else Mapping.Kernel.multi backends
  in
  ignore (Test_hierarchical.clinic ~kernel 40);
  kernel

(* The (file, attribute, value) triples of every stored keyword, FILE
   excluded: the literals random queries draw from. *)
(* a record's keywords in order, as a list *)
let keyword_list record =
  List.rev (Abdm.Record.fold (fun acc a v -> Abdm.Keyword.make a v :: acc) [] record)

let literals kernel =
  Mapping.Kernel.to_seq kernel
  |> Seq.concat_map (fun (_, record) ->
         match Abdm.Record.file record with
         | None -> Seq.empty
         | Some file ->
           List.to_seq (keyword_list record)
           |> Seq.filter_map (fun (kw : Abdm.Keyword.t) ->
                  if String.equal kw.attribute Abdm.Keyword.file_attribute then
                    None
                  else Some (file, kw.attribute, kw.value)))
  |> Array.of_seq

let ops = Abdm.Predicate.[ Eq; Eq; Neq; Lt; Le; Gt; Ge ]

(* One conjunction: a FILE predicate (or, now and then, none) and up to
   three comparisons with literals of that file, some of them against a
   literal of another attribute or file, so that empty answers occur. *)
let gen_query literals =
  let open QCheck2.Gen in
  let pick = map (Array.get literals) (int_bound (Array.length literals - 1)) in
  let* file, _, _ = pick in
  let same_file = map (Array.get literals) (int_bound (Array.length literals - 1)) in
  let pred =
    let* _, attr, value = pick in
    let* _, _, other = same_file in
    let* op = oneofl ops in
    let* exact = bool in
    return (Abdm.Predicate.make attr op (if exact then value else other))
  in
  let* preds = list_size (int_bound 3) pred in
  let* with_file = frequency [ 9, return true; 1, return false ] in
  return
    (Abdm.Query.conj
       (if with_file then Abdm.Predicate.file_eq file :: preds else preds))

let prop_select_is_rebuilt_rows (label, kernel) =
  QCheck2.Test.make ~count:150 ~name:("select = RETRIEVE (ALL) rows, " ^ label)
    ~print:Abdm.Query.to_string
    (gen_query (literals kernel))
    (fun query ->
      Mapping.Kernel.select kernel query = Retrieve_oracle.retrieve kernel query)

let kernels =
  [
    "University, single store", university 0;
    "University, 2 backends", university 2;
    "clinic, single store", clinic 0;
    "clinic, 2 backends", clinic 2;
  ]

(* --- one selective RETRIEVE per point read, in every language ----------- *)

let system () =
  let t = Mlds.System.create () in
  let ok what = function
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: %s" what msg
  in
  ok "university"
    (Mlds.System.define_functional t ~name:"university"
       ~ddl:Daplex.University.ddl Daplex.University.rows);
  ok "payroll" (Mlds.System.define_relational t ~name:"payroll");
  ok "medical"
    (Mlds.System.define_hierarchical t ~name:"medical"
       ~ddl:
         "DATABASE medical\n\
          SEGMENT patient (pname CHAR(20), pid INT)\n\
          SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)");
  t

let submit t language ~db src =
  match Mlds.System.open_handle t language ~db with
  | Error msg -> Alcotest.failf "open %s: %s" db msg
  | Ok h ->
    let result = Mlds.System.submit_handle h src in
    Mlds.System.close_handle h;
    Result.map_error Mlds.System.handle_error_to_string result

let ok_submit t language ~db src =
  match submit t language ~db src with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "%s: %s" src msg

let kernel_of t db =
  match Mlds.System.kernel_of t db with
  | Some kernel -> kernel
  | None -> Alcotest.failf "no kernel for %s" db

let load t =
  ok_submit t Mlds.System.L_sql ~db:"payroll"
    "CREATE TABLE emp (id INT, name CHAR(12))";
  for i = 1 to 20 do
    ok_submit t Mlds.System.L_sql ~db:"payroll"
      (Printf.sprintf "INSERT INTO emp VALUES (%d, 'e%d')" i i);
    ok_submit t Mlds.System.L_dli ~db:"medical"
      (Printf.sprintf "ISRT patient (pname = 'p%d', pid = %d)" i i)
  done

(* (language, database, point read, the requests it must issue) *)
let point_reads =
  Mlds.System.
    [
      ( L_codasyl,
        "university",
        "MOVE 'Advanced Database' TO title IN course\n\
         FIND ANY course USING title IN course",
        [ "RETRIEVE ((FILE = 'course') AND (title = 'Advanced Database')) (ALL)" ] );
      ( L_daplex,
        "university",
        "FOR EACH p IN person SUCH THAT ssn(p) = 111223335 PRINT name(p) END",
        [ "RETRIEVE ((FILE = 'person') AND (ssn = 111223335)) (ALL)";
          (* name(p): the instance's stored copies, by key *)
          "RETRIEVE ((FILE = 'person') AND (person = 19)) (ALL)" ] );
      ( L_sql,
        "payroll",
        "SELECT name FROM emp WHERE id = 7",
        [ "RETRIEVE ((FILE = 'emp') AND (id = 7)) (name)" ] );
      ( L_dli,
        "medical",
        "GU patient(pid = 7)",
        [ "RETRIEVE ((FILE = 'patient') AND (pid = 7)) (ALL)" ] );
      ( L_abdl,
        "payroll",
        "RETRIEVE ((FILE = emp) AND (id = 7)) (name)",
        [ "RETRIEVE ((FILE = 'emp') AND (id = 7)) (name)" ] );
    ]

let test_point_read_per_language () =
  let t = system () in
  load t;
  List.iter
    (fun (language, db, src, want) ->
      let label = Mlds.System.language_to_string language in
      let result, requests =
        Mapping.Kernel.collect (kernel_of t db) (fun () -> submit t language ~db src)
      in
      (match result with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" label msg);
      Alcotest.(check (list string))
        (label ^ ": selective RETRIEVEs") want
        (List.map Abdl.Ast.to_string requests))
    point_reads

(* --- what collect keeps, and that it leaves nothing behind -------------- *)

let emp id =
  Abdm.Record.make
    [ Abdm.Keyword.file "emp"; Abdm.Keyword.make "id" (Abdm.Value.Int id) ]

let id_is id =
  Abdm.Query.conj
    [ Abdm.Predicate.file_eq "emp";
      Abdm.Predicate.make "id" Abdm.Predicate.Eq (Abdm.Value.Int id) ]

let test_collect_keeps_requests () =
  List.iter
    (fun (label, kernel) ->
      let key = Mapping.Kernel.insert kernel (emp 1) in
      let (), requests =
        Mapping.Kernel.collect kernel (fun () ->
            ignore (Mapping.Kernel.run kernel (Abdl.Ast.Insert (emp 2)));
            ignore (Mapping.Kernel.select kernel (id_is 2));
            ignore (Mapping.Kernel.get kernel key);
            Mapping.Kernel.replace kernel key (emp 3);
            ignore (Mapping.Kernel.insert_unique kernel (emp 4) [ id_is 4 ]);
            (* refused, and still the statement's request *)
            ignore (Mapping.Kernel.insert_unique kernel (emp 3) [ id_is 3 ]))
      in
      Alcotest.(check (list string))
        (label ^ ": run, select, insert_unique; no get or replace")
        [ "INSERT (<FILE, 'emp'>, <id, 2>)";
          "RETRIEVE ((FILE = 'emp') AND (id = 2)) (ALL)";
          "INSERT (<FILE, 'emp'>, <id, 4>)";
          "INSERT (<FILE, 'emp'>, <id, 3>)" ]
        (List.map Abdl.Ast.to_string requests))
    [ "single", Mapping.Kernel.single (); "2 backends", Mapping.Kernel.multi 2 ]

let test_collect_leaves_nothing_behind () =
  let t = system () in
  load t;
  let kernel = kernel_of t "payroll" in
  let read = "SELECT name FROM emp WHERE id = 3" in
  let only_own what =
    let _, requests =
      Mapping.Kernel.collect kernel (fun () ->
          ignore (submit t Mlds.System.L_sql ~db:"payroll" read))
    in
    Alcotest.(check (list string)) what
      [ "RETRIEVE ((FILE = 'emp') AND (id = 3)) (name)" ]
      (List.map Abdl.Ast.to_string requests)
  in
  (* a statement that fails after a request of its own *)
  let result, requests =
    Mapping.Kernel.collect kernel (fun () ->
        submit t Mlds.System.L_sql ~db:"payroll"
          "SELECT name FROM emp WHERE id = 1\nSELECT nope FROM nowhere")
  in
  Alcotest.(check int) "the failing submission's requests" 1 (List.length requests);
  Alcotest.(check bool) "it reports the error" true
    (match result with
    | Ok out -> Daplex.Str_search.find out "unknown relation" <> None
    | Error _ -> true);
  ok_submit t Mlds.System.L_sql ~db:"payroll" "SELECT name FROM emp WHERE id = 2";
  only_own "after Error: only its own requests";
  (* a statement that raises; a tap it left open would keep a list cell
     per request issued from then on *)
  (match
     Mapping.Kernel.collect kernel (fun () ->
         ignore (submit t Mlds.System.L_sql ~db:"payroll" read);
         failwith "statement raised")
   with
  | _ -> Alcotest.fail "collect swallowed the exception"
  | exception Failure _ -> ());
  let request = Abdl.Parser.request "RETRIEVE ((FILE = emp) AND (id = 4)) (name)" in
  let requests = 5000 in
  Test_memory.check_flat "requests after a raise" ~requests
    ~bound_bytes:(32 * 1024)
    (Test_memory.growth (fun () ->
         for _ = 1 to requests do
           ignore (Mapping.Kernel.run kernel request)
         done));
  only_own "after a raise: only its own requests"

let suite =
  List.map
    (fun k -> QCheck_alcotest.to_alcotest (prop_select_is_rebuilt_rows k))
    kernels
  @ [
      "point read per language: RETRIEVEs", `Quick, test_point_read_per_language;
      "collect keeps run, select, insert_unique", `Quick, test_collect_keeps_requests;
      "collect leaves no collector behind", `Quick, test_collect_leaves_nothing_behind;
    ]

(* The KFS writer against its oracle (test/kfs_oracle.ml): random
   statement/outcome lists in all five languages — multi-line results,
   empty tables, ragged rows, constraint aborts — format to the same
   bytes, and every SQL statement prints as the Printf printer did. *)

(* Printable text with the odd newline, so results span lines. *)
let gen_text =
  let open QCheck2.Gen in
  string_size
    ~gen:(frequency [ 8, map Char.chr (int_range 32 126); 1, pure '\n' ])
    (int_range 0 16)

let gen_value =
  let open QCheck2.Gen in
  oneof
    [
      map (fun i -> Abdm.Value.Int i) (int_range (-9) 99);
      map (fun i -> Abdm.Value.Float (float_of_int i /. 4.)) (int_range (-9) 99);
      map (fun s -> Abdm.Value.Str s) gen_text;
      pure Abdm.Value.Null;
    ]

let gen_name = QCheck2.Gen.oneofl [ "a"; "name"; "salary"; "x1"; "title" ]

let gen_fields = QCheck2.Gen.(list_size (int_range 0 4) (pair gen_name gen_value))

let gen_result gen_outcome =
  let open QCheck2.Gen in
  frequency [ 4, map Result.ok gen_outcome; 1, map Result.error gen_text ]

let gen_pairs gen_stmt gen_outcome =
  QCheck2.Gen.(list_size (int_range 0 6) (pair gen_stmt (gen_result gen_outcome)))

let pool parse texts = QCheck2.Gen.oneofl (List.map parse texts)

let gen_codasyl =
  let open Codasyl_dml.Engine in
  gen_pairs
    (pool Codasyl_dml.Parser.stmt
       [ "MOVE 'Advanced Database' TO title IN course";
         "FIND ANY course USING title IN course"; "FIND FIRST student WITHIN advisor";
         "FIND OWNER WITHIN advisor"; "GET course"; "GET title, credits IN course";
         "STORE course"; "CONNECT student TO advisor"; "DISCONNECT x FROM a, b" ])
    QCheck2.Gen.(
      oneof
        [
          map (fun s -> Done s) gen_text;
          map2 (fun dbkey record_type -> Found { dbkey; record_type }) nat gen_name;
          pure End_of_set;
          map (fun fields -> Got fields) gen_fields;
          map (fun dbkey -> Stored { dbkey }) nat;
        ])

let gen_daplex =
  let open Daplex_dml.Engine in
  gen_pairs
    (pool Daplex_dml.Parser.stmt
       [ "FOR EACH s IN student SUCH THAT major(s) = 'CS' PRINT name(s), major(s) END";
         "FOR EACH s IN student PRINT name(advisor(s)) END";
         "CREATE course (title = 'X', credits = 3)";
         "CREATE student UNDER person 17 (major = 'History')" ])
    QCheck2.Gen.(
      oneof
        [
          map (fun rows -> Printed rows) (list_size (int_range 0 4) gen_fields);
          map (fun k -> Created k) nat;
          map (fun n -> Destroyed n) nat;
        ])

(* Test_relational's INSERT/UPDATE/DELETE/CREATE generator, plus SELECTs
   with every clause. *)
let gen_sql_stmt =
  let open QCheck2.Gen in
  let gen_where =
    oneof
      [
        pure Abdm.Query.always;
        map3
          (fun c op v -> Abdm.Query.conj [ Abdm.Predicate.make c op v ])
          gen_name
          (oneofl Abdm.Predicate.[ Eq; Neq; Lt; Ge ])
          gen_value;
      ]
  in
  let gen_item =
    oneof
      [
        pure Relational.Sql_ast.S_star;
        map (fun c -> Relational.Sql_ast.S_col c) gen_name;
        map2
          (fun agg c -> Relational.Sql_ast.S_agg (agg, c))
          (oneofl Abdl.Ast.[ Count; Sum; Avg; Min; Max ])
          (oneof [ gen_name; pure "*" ]);
      ]
  in
  let gen_select =
    let* items = list_size (int_range 1 3) gen_item in
    let* tables = list_size (int_range 1 2) (oneofl [ "u"; "v" ]) in
    let* where = gen_where in
    let* group_by = opt gen_name in
    let* order_by = opt gen_name in
    pure (Relational.Sql_ast.Select { items; tables; where; group_by; order_by })
  in
  frequency [ 3, Test_relational.gen_stmt; 1, gen_select ]

let gen_sql =
  let open Relational.Engine in
  gen_pairs gen_sql_stmt
    QCheck2.Gen.(
      oneof
        [
          (* ragged rows: a record may lack an attribute *)
          map2
            (fun header rows -> Table { header; rows })
            (list_size (int_range 0 3) gen_name)
            (list_size (int_range 0 5) (list_size (int_range 0 4) gen_value));
          map (fun name -> Created_table name) gen_name;
          map (fun n -> Inserted n) nat;
          map (fun n -> Deleted n) nat;
          map (fun n -> Updated n) nat;
        ])

let gen_dli =
  let open Hierarchical.Engine in
  gen_pairs
    (pool Hierarchical.Dli_parser.call
       [ "ISRT patient (pname = 'Doe', pid = 1)";
         "ISRT patient(pid = 1) visit (vdate = 'Jan', cost = 100)";
         "GU patient(pid = 1) visit(vdate = 'Feb')"; "GN visit(cost > 90)"; "GNP visit";
         "GN" ])
    QCheck2.Gen.(
      oneof
        [
          map3 (fun segment key fields -> Found { segment; key; fields }) gen_name nat
            gen_fields;
          pure Not_found;
          map (fun n -> Inserted n) nat;
          map (fun n -> Replaced n) nat;
          map (fun n -> Deleted n) nat;
        ])

let gen_abdl =
  let open QCheck2.Gen in
  let gen_request =
    oneof
      [
        pool Abdl.Parser.request
          [ "RETRIEVE ((FILE = employee) AND (salary > 2500)) (name) BY name";
            "UPDATE ((FILE = employee) AND (salary < 500)) (salary = salary + 7)";
            "RETRIEVE ((FILE = employee)) (COUNT(name), SUM(salary))";
            "DELETE ((FILE = employee) AND (salary > 2900))" ];
        map
          (fun fields ->
            Abdl.Ast.Insert
              (Abdm.Record.make
                 (Abdm.Keyword.file "employee"
                 :: List.mapi (fun i (_, v) -> Abdm.Keyword.make (Printf.sprintf "a%d" i) v) fields)))
          gen_fields;
      ]
  in
  let gen_exec =
    oneof
      [
        map (fun k -> Abdl.Exec.Inserted k) nat;
        map (fun n -> Abdl.Exec.Deleted n) nat;
        map (fun n -> Abdl.Exec.Updated n) nat;
        map
          (fun rows -> Abdl.Exec.Rows rows)
          (list_size (int_range 0 4)
             (map2 (fun dbkey values -> { Abdl.Exec.dbkey; values }) (opt nat) gen_fields));
      ]
  in
  list_size (int_range 0 6) (pair gen_request gen_exec)

let byte_identical ~name ~count gen format oracle =
  QCheck2.Test.make ~name ~count gen (fun pairs ->
      let got = format pairs and want = oracle pairs in
      if not (String.equal got want) then
        QCheck2.Test.fail_reportf "KFS wrote@.%S@.the oracle@.%S" got want;
      true)

let props =
  [
    byte_identical ~name:"KFS CODASYL-DML = oracle" ~count:300 gen_codasyl
      Mlds.Kfs.format_codasyl Kfs_oracle.format_codasyl;
    byte_identical ~name:"KFS Daplex = oracle" ~count:300 gen_daplex
      Mlds.Kfs.format_daplex Kfs_oracle.format_daplex;
    byte_identical ~name:"KFS SQL = oracle" ~count:300 gen_sql Mlds.Kfs.format_sql
      Kfs_oracle.format_sql;
    byte_identical ~name:"KFS DL/I = oracle" ~count:300 gen_dli Mlds.Kfs.format_dli
      Kfs_oracle.format_dli;
    byte_identical ~name:"KFS ABDL = oracle" ~count:300 gen_abdl Mlds.Kfs.format_abdl
      Kfs_oracle.format_abdl;
    QCheck2.Test.make ~name:"Sql_ast.to_string = Printf printer" ~count:500 gen_sql_stmt
      (fun stmt ->
        String.equal (Relational.Sql_ast.to_string stmt) (Kfs_oracle.sql_to_string stmt));
  ]

let suite = List.map QCheck_alcotest.to_alcotest props

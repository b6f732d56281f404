(* The MLDS benchmark harness: regenerates every quantitative artifact the
   paper reports or claims (EXPERIMENTS.md maps each to its source):

   E1  MBDS claim 1 — response time vs number of backends (fixed database)
   E2  MBDS claim 2 — response-time invariance under proportional growth
   E3  Fig 2.1 -> Fig 5.1 — schema transformation inventory and cost
   E4  Fig 3.3 — the AB(functional) database inventory
   E5  §VI.B — FIND-statement translation table (generated ABDL requests)
   E6  §VI.D-H — update-statement translation table
   E7  §III.B — mapping-strategy comparison (one-step schema transformation
       vs per-statement translation work)
   E8  §I.A — the multi-lingual claim: one query, five languages, one answer
   E9  design-choice ablations: balanced placement; the equality directory
   E10 cross-model overhead: one question through each interface, and
       DL/I and Daplex point reads at 3 000 instances against ABDL's
   E11 response-size sensitivity: the 'constant response' caveat of claim 1
   E12 real domain parallelism: worker-less vs shared pool broadcast wall clock

   Wall-clock micro-benchmarks (Bechamel, one Test.make per experiment
   family) follow the tables. `--quick` runs a fast smoke subset (CI). *)

open Bechamel
open Toolkit
open Mbds_trials

(* ------------------------------------------------------------------ *)
(* shared workload helpers                                             *)
(* ------------------------------------------------------------------ *)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* (modelled, measured) mean response times for one configuration, the
   trials on one controller ([Mbds_trials.run]). With [label], every
   trial's modelled and measured latency is also observed into
   [bench.<label>.modelled_s] / [bench.<label>.measured_s] histograms in
   the Obs registry — the JSON artifact (BENCH_pr2.json) is a dump of
   that registry, so each labelled experiment gets p50/p90/p99 rows. *)
let mbds_mean_times ?label ?placement ?probe ~backends ~records ~trials () =
  let observe =
    match label with
    | None -> fun _ -> ()
    | Some l ->
      let h_mod =
        Obs.Metrics.histogram (Printf.sprintf "bench.%s.modelled_s" l)
      in
      let h_meas =
        Obs.Metrics.histogram (Printf.sprintf "bench.%s.measured_s" l)
      in
      fun (modelled, measured) ->
        Obs.Metrics.observe h_mod modelled;
        Obs.Metrics.observe h_meas measured
  in
  let times = Mbds_trials.run ?placement ?probe ~backends ~records ~trials () in
  List.iter observe times;
  mean (List.map fst times), mean (List.map snd times)

let university_session () =
  let kernel, transform, _ = Mapping.Loader.university () in
  Codasyl_dml.Session.create kernel (Mapping.Ab_schema.Fun transform)

let banner title =
  Printf.printf "\n==============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==============================================================\n"

(* ------------------------------------------------------------------ *)
(* E1 / E2: the MBDS performance claims                                *)
(* ------------------------------------------------------------------ *)

let experiment_e1 () =
  banner "E1  MBDS claim 1: response time vs backends (fixed DB, 4000 records)";
  Printf.printf "%-10s %-16s %-12s %-8s %s\n" "backends" "modelled (s)" "speedup"
    "ideal" "measured (us)";
  let t1, _ =
    mbds_mean_times ~label:"e1.be1" ~backends:1 ~records:4000 ~trials:5 ()
  in
  List.iter
    (fun n ->
      let tn, wn =
        mbds_mean_times
          ~label:(Printf.sprintf "e1.be%d" n)
          ~backends:n ~records:4000 ~trials:5 ()
      in
      Printf.printf "%-10d %-16.4f %-12.2f %-8s %.1f\n" n tn (t1 /. tn)
        (Printf.sprintf "%d.00" n) (wn *. 1e6))
    [ 1; 2; 4; 8; 16 ]

let experiment_e2 () =
  banner "E2  MBDS claim 2: proportional growth (1000 records per backend)";
  Printf.printf "%-10s %-10s %-16s %-12s %s\n" "backends" "records" "modelled (s)"
    "vs baseline" "measured (us)";
  let base, _ =
    mbds_mean_times ~label:"e2.be1" ~backends:1 ~records:1000 ~trials:5 ()
  in
  List.iter
    (fun n ->
      let tn, wn =
        mbds_mean_times
          ~label:(Printf.sprintf "e2.be%d" n)
          ~backends:n ~records:(1000 * n) ~trials:5 ()
      in
      Printf.printf "%-10d %-10d %-16.4f %-12s %.1f\n" n (1000 * n) tn
        (Printf.sprintf "%.3fx" (tn /. base)) (wn *. 1e6))
    [ 1; 2; 4; 8; 16 ]

(* ------------------------------------------------------------------ *)
(* E3: the Fig 2.1 -> Fig 5.1 transformation                           *)
(* ------------------------------------------------------------------ *)

let experiment_e3 () =
  banner "E3  Functional -> network transformation of the University schema";
  let schema = Daplex.University.schema () in
  let t = Transformer.Transform.transform schema in
  let net = t.Transformer.Transform.net in
  Printf.printf "source entity types:      %d\n"
    (List.length schema.Daplex.Schema.entities);
  Printf.printf "source entity subtypes:   %d\n"
    (List.length schema.Daplex.Schema.subtypes);
  Printf.printf "network record types:     %d (incl. %d LINK records)\n"
    (List.length net.Network.Schema.records)
    (List.length t.Transformer.Transform.links);
  Printf.printf "network set types:        %d\n" (List.length net.Network.Schema.sets);
  let count origin =
    List.length
      (List.filter (fun (_, o) -> o = origin) t.Transformer.Transform.origins)
  in
  Printf.printf "  SYSTEM-owned:           %d\n" (count Transformer.Transform.O_system);
  Printf.printf "  ISA sets:               %d\n" (count Transformer.Transform.O_isa);
  let fn_sets =
    List.length t.Transformer.Transform.origins
    - count Transformer.Transform.O_system
    - count Transformer.Transform.O_isa
  in
  Printf.printf "  Daplex-function sets:   %d\n" fn_sets;
  Printf.printf "uniqueness constraints -> DUPLICATES NOT ALLOWED items: %d\n"
    (List.fold_left
       (fun acc (r : Network.Types.record_type) ->
         acc
         + List.length
             (List.filter
                (fun (a : Network.Types.attribute) -> not a.attr_dup_allowed)
                r.rec_attributes))
       0 net.Network.Schema.records)

(* ------------------------------------------------------------------ *)
(* E4: the AB(functional) database (Fig 3.3)                           *)
(* ------------------------------------------------------------------ *)

let experiment_e4 () =
  banner "E4  AB(functional) University database (cf. paper Fig. 3.3)";
  let kernel, transform, _ = Mapping.Loader.university () in
  let d = Mapping.Ab_schema.descriptor (Mapping.Ab_schema.Fun transform) in
  Printf.printf "%-16s %-10s %s\n" "file" "records" "attribute template";
  List.iter
    (fun file ->
      Printf.printf "%-16s %-10d %s\n" file
        (Mapping.Kernel.count kernel file)
        (String.concat ", " (Abdm.Descriptor.attribute_names d file)))
    (Abdm.Descriptor.file_names d);
  Printf.printf "total records: %d\n" (Mapping.Kernel.size kernel)

(* ------------------------------------------------------------------ *)
(* E5 / E6: the Chapter VI translation tables                          *)
(* ------------------------------------------------------------------ *)

let translation_table title scripts =
  banner title;
  Printf.printf "%-58s %-5s %s\n" "CODASYL-DML statement" "#ABDL" "first generated request";
  List.iter
    (fun (setup, probe) ->
      let session = university_session () in
      List.iter
        (fun src ->
          ignore (Codasyl_dml.Engine.execute session (Codasyl_dml.Parser.stmt src)))
        setup;
      let stmt = Codasyl_dml.Parser.stmt probe in
      let _result, issued =
        Mapping.Kernel.collect session.Codasyl_dml.Session.kernel (fun () ->
            Codasyl_dml.Engine.execute session stmt)
      in
      let first =
        match issued with
        | r :: _ ->
          let text = Abdl.Ast.to_string r in
          if String.length text > 84 then String.sub text 0 81 ^ "..." else text
        | [] -> "(none: resolved from CIT / request buffer)"
      in
      Printf.printf "%-58s %-5d %s\n" probe (List.length issued) first)
    scripts

let experiment_e5 () =
  translation_table
    "E5  FIND-statement translations (§VI.B; one-to-many correspondence)"
    [
      ( [ "MOVE 'Advanced Database' TO title IN course" ],
        "FIND ANY course USING title IN course" );
      ( [ "MOVE 'Advanced Database' TO title IN course";
          "FIND ANY course USING title IN course";
          "FIND FIRST course WITHIN system_course" ],
        "FIND CURRENT course WITHIN system_course" );
      ( [ "MOVE 'Advanced Database' TO title IN course";
          "FIND ANY course USING title IN course";
          "FIND FIRST course WITHIN system_course" ],
        "FIND DUPLICATE WITHIN system_course USING title IN course" );
      ( [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person";
          "FIND FIRST employee WITHIN person_employee";
          "FIND FIRST faculty WITHIN employee_faculty" ],
        "FIND FIRST student WITHIN advisor" );
      ( [ "MOVE 'Hsiao' TO name IN person"; "FIND ANY person USING name IN person";
          "FIND FIRST employee WITHIN person_employee";
          "FIND FIRST faculty WITHIN employee_faculty";
          "FIND FIRST student WITHIN advisor" ],
        "FIND NEXT student WITHIN advisor" );
      ( [ "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person";
          "FIND FIRST student WITHIN person_student" ],
        "FIND OWNER WITHIN advisor" );
      ( [ "MOVE 'Computer Science' TO dname IN department";
          "FIND ANY department USING dname IN department";
          "MOVE 'Operating Systems' TO title IN course" ],
        "FIND course WITHIN offers CURRENT USING title IN course" );
    ]

let experiment_e6 () =
  translation_table
    "E6  Update-statement translations (§VI.D-H)"
    [
      ( [ "MOVE 'Robotics' TO title IN course"; "MOVE 'Fall' TO semester IN course";
          "MOVE 4 TO credits IN course" ],
        "STORE course" );
      ( [ "MOVE 'Simulation' TO title IN course";
          "FIND ANY course USING title IN course"; "MOVE 5 TO credits IN course" ],
        "MODIFY credits IN course" );
      ( [ "MOVE 'Wortherly' TO name IN person";
          "FIND ANY person USING name IN person";
          "FIND FIRST student WITHIN person_student" ],
        "DISCONNECT student FROM advisor" );
      ( [ "MOVE 'Demurjian' TO name IN person";
          "FIND ANY person USING name IN person";
          "FIND FIRST employee WITHIN person_employee";
          "FIND FIRST faculty WITHIN employee_faculty";
          "MOVE 'Coker' TO name IN person"; "FIND ANY person USING name IN person";
          "FIND FIRST student WITHIN person_student";
          "DISCONNECT student FROM advisor" ],
        "CONNECT student TO advisor" );
      ( [ "MOVE 'Ephemeral' TO title IN course"; "MOVE 'Fall' TO semester IN course";
          "MOVE 1 TO credits IN course"; "STORE course" ],
        "ERASE course" );
    ]

(* ------------------------------------------------------------------ *)
(* E7: mapping-strategy comparison (§III.B)                            *)
(* ------------------------------------------------------------------ *)

let time_of f =
  let t0 = Unix.gettimeofday () in
  let iters = 200 in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

let experiment_e7 () =
  banner "E7  Mapping-strategy comparison (§III.B: why Direct Language Interface)";
  let schema = Daplex.University.schema () in
  let t_transform = time_of (fun () -> Transformer.Transform.transform schema) in
  (* the high-level preprocessing alternative pays a two-step schema path:
     functional -> network DDL text -> reparse -> validate *)
  let transform = Transformer.Transform.transform schema in
  let ddl = Network.Schema.to_ddl transform.Transformer.Transform.net in
  let t_two_step =
    time_of (fun () ->
        let net = Network.Ddl_parser.schema ddl in
        ignore (Sys.opaque_identity net);
        Transformer.Transform.transform schema)
  in
  let session = university_session () in
  List.iter
    (fun src ->
      ignore (Codasyl_dml.Engine.execute session (Codasyl_dml.Parser.stmt src)))
    [ "MOVE 'Advanced Database' TO title IN course" ];
  let t_statement =
    time_of (fun () ->
        Codasyl_dml.Engine.execute session
          (Codasyl_dml.Parser.stmt "FIND ANY course USING title IN course"))
  in
  Printf.printf "one-step schema transformation (direct):    %8.1f us\n"
    (t_transform *. 1e6);
  Printf.printf "two-step schema transformation (pre-proc.): %8.1f us  (%.2fx)\n"
    (t_two_step *. 1e6) (t_two_step /. t_transform);
  Printf.printf "translate+execute one FIND ANY:             %8.1f us\n"
    (t_statement *. 1e6);
  Printf.printf
    "(the schema transformation is paid once per database; statements\n\
    \ pay only the translation cost — the direct strategy's advantage)\n"

(* ------------------------------------------------------------------ *)
(* E8: the multi-lingual claim                                         *)
(* ------------------------------------------------------------------ *)

let experiment_e8 () =
  banner "E8  One question, five languages (the multi-lingual claim, §I.A)";
  let t = Mlds.System.create () in
  begin
    match
      Mlds.System.define_functional t ~name:"university"
        ~ddl:Daplex.University.ddl Daplex.University.rows
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  begin
    match Mlds.System.define_relational t ~name:"payroll" with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  begin
    match
      Mlds.System.define_hierarchical t ~name:"university_h"
        ~ddl:
          "DATABASE university_h\nSEGMENT dept (dname CHAR(20))\nSEGMENT student_seg PARENT dept (sname CHAR(25))"
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  let submit lang db src =
    match Mlds.System.open_handle t lang ~db with
    | Error msg -> failwith msg
    | Ok h ->
      match Mlds.System.submit_handle h src with
      | Ok out -> out
      | Error e -> failwith (Mlds.System.handle_error_to_string e)
  in
  (* mirror the CS student roster into the relational and hierarchical dbs *)
  ignore
    (submit Mlds.System.L_sql "payroll"
       "CREATE TABLE student (sname CHAR(25), major CHAR(20))");
  ignore
    (submit Mlds.System.L_sql "payroll"
       "INSERT INTO student VALUES ('Coker', 'Computer Science'); INSERT INTO student VALUES ('Rodeck', 'Computer Science'); INSERT INTO student VALUES ('Emdi', 'Computer Science')");
  ignore
    (submit Mlds.System.L_dli "university_h"
       "ISRT dept (dname = 'Computer Science'); ISRT dept(dname = 'Computer Science') student_seg (sname = 'Coker'); ISRT dept(dname = 'Computer Science') student_seg (sname = 'Rodeck'); ISRT dept(dname = 'Computer Science') student_seg (sname = 'Emdi')");
  let question = "how many Computer Science students?" in
  Printf.printf "question: %s\n\n" question;
  let count_from label out =
    Printf.printf "%-12s %s\n" label
      (String.concat " | " (String.split_on_char '\n' out))
  in
  count_from "Daplex"
    (submit Mlds.System.L_daplex "university"
       "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT name(s) END");
  count_from "CODASYL-DML"
    (submit Mlds.System.L_codasyl "university"
       {|MOVE 'Computer Science' TO major IN student
FIND ANY student USING major IN student|});
  count_from "SQL"
    (submit Mlds.System.L_sql "payroll"
       "SELECT COUNT(sname) FROM student WHERE major = 'Computer Science'");
  count_from "DL/I"
    (submit Mlds.System.L_dli "university_h"
       "GU dept(dname = 'Computer Science'); GNP student_seg; GNP student_seg; GNP student_seg; GNP student_seg");
  count_from "ABDL"
    (submit Mlds.System.L_abdl "university"
       "RETRIEVE ((FILE = student) AND (major = 'Computer Science')) (COUNT(student))")

(* ------------------------------------------------------------------ *)
(* E9: design-choice ablations                                         *)
(* ------------------------------------------------------------------ *)

let experiment_e9 () =
  banner "E9  Ablations: balanced placement and the equality directory";
  (* (a) placement: the max-loaded backend gates the parallel term *)
  let skew_time placement =
    ( fst (mbds_mean_times ~placement ~backends:8 ~records:4000 ~trials:5 ()),
      Mbds.Controller.backend_sizes (load ~placement ~backends:8 4000) )
  in
  Printf.printf "placement (8 backends, 4000 records):\n";
  Printf.printf "  %-28s %-18s %s\n" "policy" "response time (s)" "max backend load";
  List.iter
    (fun (label, placement) ->
      let time, sizes = skew_time placement in
      Printf.printf "  %-28s %-18.4f %d\n" label time
        (List.fold_left max 0 sizes))
    [
      "balanced (cluster-based)", Mbds.Controller.Round_robin;
      "50% skew to backend 0", Mbds.Controller.Skewed 0.5;
      "90% skew to backend 0", Mbds.Controller.Skewed 0.9;
    ];
  (* (b) the equality directory: indexed vs full-file scan *)
  let store_time indexed =
    let s = Abdm.Store.create ~indexed () in
    List.iter
      (fun i -> ignore (Abdm.Store.insert s (employee_record i)))
      (List.init 4000 Fun.id);
    let q = Abdl.Parser.query "(FILE = employee) AND (name = 'e2000')" in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 500 do
      ignore (Sys.opaque_identity (Abdm.Store.select s q))
    done;
    (Unix.gettimeofday () -. t0) /. 500.
  in
  let with_index = store_time true in
  let without_index = store_time false in
  Printf.printf "\nequality selection, 4000 records (wall clock):\n";
  Printf.printf "  with directory:    %10.2f us\n" (with_index *. 1e6);
  Printf.printf "  without directory: %10.2f us  (%.0fx slower)\n"
    (without_index *. 1e6)
    (without_index /. with_index)

(* ------------------------------------------------------------------ *)
(* E10: cross-model interface overhead                                 *)
(* ------------------------------------------------------------------ *)

(* Median of [trials] samples of [sample ()]. *)
let median trials sample =
  let xs = List.sort Float.compare (List.init trials (fun _ -> sample ())) in
  List.nth xs (trials / 2)

(* Point reads at 3 000 instances: DL/I GU by root key and Daplex SUCH
   THAT on a unique scalar, each next to the ABDL point read of the same
   record on the same kernel. Statements are parsed up front. A sample is
   the mean of 10 calls on different keys (the clock ticks in
   microseconds); a row is the median of 200 samples, after a warm-up
   that builds the kernel's auto-indexes. The two ratios are exported as
   the bench.e10.*_over_abdl gauges. *)
let experiment_e10_point_reads () =
  Printf.printf
    "\nPoint reads at 3 000 instances (median of 200 samples of 10 calls)\n";
  let median_us run requests =
    let requests = Array.of_list requests in
    let next = ref 0 in
    let sample () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to 10 do
        ignore (Sys.opaque_identity (run requests.(!next mod Array.length requests)));
        incr next
      done;
      (Unix.gettimeofday () -. t0) /. 10.
    in
    ignore (median 20 sample);
    median 200 sample *. 1e6
  in
  let row ~gauge (label, run, requests) (abdl_label, kernel, abdl_requests) =
    let us = median_us run requests in
    let abdl_us = median_us (Mapping.Kernel.run kernel) abdl_requests in
    Printf.printf "  %-50s %8.1f us\n  %-50s %8.1f us   ratio %.1fx\n" label us
      abdl_label abdl_us (us /. abdl_us);
    Obs.Metrics.set_gauge (Obs.Metrics.gauge ("bench.e10." ^ gauge)) (us /. abdl_us)
  in
  (* keys in a scattered order, so consecutive calls read different records *)
  let scatter keys =
    let keys = Array.of_list keys in
    let n = Array.length keys in
    List.init n (fun i -> keys.(i * 7919 mod n))
  in
  let patients = 3000 in
  let dli_kernel = Mapping.Kernel.single () in
  let dli =
    Hierarchical.Engine.create dli_kernel
      (Hierarchical.Ddl_parser.schema
         "DATABASE med\n\
          SEGMENT patient (pname CHAR(20), pid INT)\n\
          SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)")
  in
  for pid = 1 to patients do
    List.iter
      (fun src ->
        match Hierarchical.Engine.run dli src with
        | Ok _ -> ()
        | Error msg -> failwith msg)
      [ Printf.sprintf "ISRT patient (pname = 'p%d', pid = %d)" pid pid;
        "ISRT visit (vdate = 'v1', cost = 10)" ]
  done;
  let pids = scatter (List.init patients succ) in
  row ~gauge:"dli_gu_over_abdl"
    ( "DL/I GU patient(pid = k)",
      Hierarchical.Engine.execute dli,
      List.map
        (fun k -> Hierarchical.Dli_parser.call (Printf.sprintf "GU patient(pid = %d)" k))
        pids )
    ( "ABDL RETRIEVE ((FILE = patient) AND (pid = k))",
      dli_kernel,
      List.map
        (fun k ->
          Abdl.Parser.request
            (Printf.sprintf "RETRIEVE ((FILE = patient) AND (pid = %d)) (pname)" k))
        pids );
  (* Daplex: the University population scaled to 3 000 persons *)
  let rows = Daplex.University.scaled_rows 1200 in
  let kernel, transform, _ = Mapping.Loader.university ~scale:1200 () in
  let daplex = Daplex_dml.Engine.create kernel transform in
  let ssns =
    scatter
      (List.filter_map
         (fun (r : Daplex.University.row) ->
           match List.assoc_opt "ssn" r.row_values with
           | Some (Daplex.University.Scalar (Abdm.Value.Int ssn)) -> Some ssn
           | Some _ | None -> None)
         rows)
  in
  row ~gauge:"daplex_such_that_over_abdl"
    ( "Daplex FOR EACH p IN person SUCH THAT ssn(p) = k",
      Daplex_dml.Engine.execute daplex,
      List.map
        (fun k ->
          Daplex_dml.Parser.stmt
            (Printf.sprintf
               "FOR EACH p IN person SUCH THAT ssn(p) = %d PRINT name(p) END" k))
        ssns )
    ( "ABDL RETRIEVE ((FILE = person) AND (ssn = k))",
      kernel,
      List.map
        (fun k ->
          Abdl.Parser.request
            (Printf.sprintf "RETRIEVE ((FILE = person) AND (ssn = %d)) (name)" k))
        ssns )

let experiment_e10 () =
  banner
    "E10  Cross-model overhead: the same question through each interface";
  let t = Mlds.System.create () in
  begin
    match
      Mlds.System.define_functional t ~name:"university"
        ~ddl:Daplex.University.ddl Daplex.University.rows
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;
  let session lang =
    match Mlds.System.open_handle t lang ~db:"university" with
    | Ok h -> h
    | Error msg -> failwith msg
  in
  let submit h src =
    match Mlds.System.submit_handle h src with
    | Ok out -> out
    | Error e -> failwith (Mlds.System.handle_error_to_string e)
  in
  let abdl = session Mlds.System.L_abdl in
  let daplex = session Mlds.System.L_daplex in
  let codasyl = session Mlds.System.L_codasyl in
  let sql = session Mlds.System.L_sql in
  let paths =
    [
      ( "ABDL (kernel, no translation)", abdl,
        "RETRIEVE ((FILE = student) AND (major = 'Computer Science')) (major)" );
      ( "SQL view (read-only MMDS path)", sql,
        "SELECT major FROM student WHERE major = 'Computer Science'" );
      ( "Daplex (native interface)", daplex,
        "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT major(s) END" );
      ( "CODASYL-DML (thesis's cross-model path)", codasyl,
        "MOVE 'Computer Science' TO major IN student\nFIND ANY student USING major IN student" );
    ]
  in
  Printf.printf "%-42s %s\n" "interface" "time/query";
  List.iter
    (fun (label, s, src) ->
      let dt = time_of (fun () -> submit s src) in
      Printf.printf "%-42s %8.1f us\n" label (dt *. 1e6))
    paths;
  print_endline
    "(each path answers 'which students major in Computer Science?'\n\
    \ against the same AB(functional) kernel image)";
  experiment_e10_point_reads ()

(* ------------------------------------------------------------------ *)
(* E11: where the reciprocal claim bends — response-size sensitivity   *)
(* ------------------------------------------------------------------ *)

let experiment_e11 () =
  banner
    "E11  Response-size sensitivity: the 'constant response' caveat of claim 1";
  (* the employees whose salary passes a threshold: [selectivity] of the
     file, in names; no FILE predicate, so every trial scans the
     partitions ([Mbds_trials.scan_probe]) *)
  let probe selectivity records =
    Abdl.Parser.request
      (Printf.sprintf "RETRIEVE ((salary > %d)) (name)"
         ((records - int_of_float (selectivity *. float_of_int records) - 1)
         * 10))
  in
  let time ~backends ~selectivity =
    fst
      (mbds_mean_times ~probe:(probe selectivity) ~backends ~records:4000
         ~trials:3 ())
  in
  Printf.printf "%-14s %-16s %-16s %s\n" "selectivity" "1 backend (s)"
    "8 backends (s)" "speedup";
  List.iter
    (fun selectivity ->
      let t1 = time ~backends:1 ~selectivity in
      let t8 = time ~backends:8 ~selectivity in
      Printf.printf "%-14.3f %-16.4f %-16.4f %.2fx\n" selectivity t1 t8 (t1 /. t8))
    [ 0.001; 0.01; 0.1; 0.5; 1.0 ];
  print_endline
    "(the serial result-return term grows with the response; the paper's\n\
    \ claim 1 holds 'while maintaining ... the size of the responses ...\n\
    \ at a constant level' — this is that caveat, quantified)"

(* ------------------------------------------------------------------ *)
(* E12: real domain parallelism — worker-less vs shared pool           *)
(* ------------------------------------------------------------------ *)

let experiment_e12 ?(quick = false) () =
  banner "E12  Domain-parallel broadcast: measured wall clock vs sequential";
  let shared = Mbds.Pool.shared () in
  let sequential = Mbds.Pool.create 0 in
  Printf.printf
    "(recommended domain count on this machine: %d; shared pool: %d workers)\n"
    (Domain.recommended_domain_count ()) (Mbds.Pool.size shared);
  let records = if quick then 4000 else 20000 in
  let trials = if quick then 5 else 31 in
  (* half the salaries pass and the query names no FILE: every share
     scans its whole partition, builds no index and returns half of it *)
  let q = Abdl.Parser.query (Printf.sprintf "(salary >= %d)" (records / 2 * 10)) in
  (* [trials] queries on one controller per configuration; the clock
     covers the broadcast and the merge by key *)
  let range_us ~pool ~tag ~backends =
    let h =
      Obs.Metrics.histogram (Printf.sprintf "bench.e12.be%d.%s.measured_s" backends tag)
    in
    let c = Mbds.Controller.create ~pool backends in
    for i = 0 to records - 1 do
      ignore (Mbds.Controller.insert c (employee_record i))
    done;
    let trial () =
      let t0 = Obs.Clock.now_s () in
      ignore (Mbds.Controller.select c q);
      let s = Obs.Clock.since t0 in
      Obs.Metrics.observe h s;
      s
    in
    median trials trial *. 1e6
  in
  Printf.printf "%-10s %-18s %-18s %s\n" "backends" "no workers (us)"
    "shared pool (us)" "wall-clock speedup";
  List.iter
    (fun n ->
      let seq = range_us ~pool:sequential ~tag:"seq" ~backends:n in
      let par = range_us ~pool:shared ~tag:"pool" ~backends:n in
      Printf.printf "%-10d %-18.1f %-18.1f %.2fx\n" n seq par (seq /. par))
    [ 2; 4; 8 ];
  Printf.printf
    "(%d records, %d rows returned, median of %d trials on one controller; speedup\n\
    \ tracks min(backends, workers + 1): with no worker the two columns run\n\
    \ the same code)\n"
    records (records / 2) trials;
  (* Per-key rows on a 2-backend controller: a plain insert; the SQL
     INSERT path before the kernel enforced UNIQUE (a key probe broadcast,
     then the insert); and the conditional insert that replaced it
     ([insert_unique], which [Kernel.insert_unique] calls: the same probe
     run on the caller, backend by backend). Tiny shares like the
     broadcast's mostly run on the calling domain, so its pool column
     should stay close to the worker-less one; insert_unique never hands
     a share to the pool, so its two columns run the same code. *)
  let inserts = if quick then 2000 else 10000 in
  let records = Array.init inserts employee_record in
  let probes =
    Array.init inserts (fun i ->
        Abdm.Query.conj
          [ Abdm.Predicate.file_eq "employee";
            Abdm.Predicate.make "name" Abdm.Predicate.Eq
              (Abdm.Value.Str (Printf.sprintf "e%d" i)) ])
  in
  let trials = if quick then 3 else 10 in
  let insert_us ~pool ~tag ~path =
    let h =
      Obs.Metrics.histogram
        (Printf.sprintf "bench.e12.%s.be2.%s.per_op_s"
           (match path with
            | `Plain -> "insert"
            | `Broadcast_probe -> "probe_insert"
            | `Insert_unique -> "insert_unique")
           tag)
    in
    let trial () =
      let c = Mbds.Controller.create ~pool 2 in
      let t0 = Obs.Clock.now_s () in
      Array.iteri
        (fun i r ->
          match path with
          | `Plain -> ignore (Mbds.Controller.insert c r)
          | `Broadcast_probe ->
            ignore (Mbds.Controller.select c probes.(i));
            ignore (Mbds.Controller.insert c r)
          | `Insert_unique ->
            ignore (Mbds.Controller.insert_unique c r [ probes.(i) ]))
        records;
      let per_op = Obs.Clock.since t0 /. float_of_int inserts in
      Obs.Metrics.observe h per_op;
      per_op
    in
    median trials trial *. 1e6
  in
  Printf.printf "\n%-22s %-18s %-18s %s\n" "per-key (2 backends)"
    "no workers (us/op)" "shared pool (us/op)" "pool / no workers";
  List.iter
    (fun (label, path) ->
      let seq = insert_us ~pool:sequential ~tag:"seq" ~path in
      let par = insert_us ~pool:shared ~tag:"pool" ~path in
      Printf.printf "%-22s %-18.2f %-18.2f %.2fx\n" label seq par (par /. seq))
    [ "insert", `Plain; "key probe + insert", `Broadcast_probe;
      "insert_unique", `Insert_unique ];
  Printf.printf "(%d inserts per trial, median of %d trials)\n" inserts trials

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let store_1k () =
    let s = Abdm.Store.create () in
    List.iter
      (fun i -> ignore (Abdm.Store.insert s (employee_record i)))
      (List.init 1000 Fun.id);
    s
  in
  let store = store_1k () in
  let selective =
    Abdl.Parser.query "(FILE = employee) AND (name = 'e500')"
  in
  let range = Abdl.Parser.query "(FILE = employee) AND (salary > 9000)" in
  let mbds8 = Mbds.Controller.create 8 in
  List.iter
    (fun i -> ignore (Mbds.Controller.insert mbds8 (employee_record i)))
    (List.init 1000 Fun.id);
  let schema = Daplex.University.schema () in
  let codasyl_session = university_session () in
  ignore
    (Codasyl_dml.Engine.execute codasyl_session
       (Codasyl_dml.Parser.stmt "MOVE 'Advanced Database' TO title IN course"));
  let find_any = Codasyl_dml.Parser.stmt "FIND ANY course USING title IN course" in
  let kernel, transform, _ = Mapping.Loader.university () in
  let daplex_engine = Daplex_dml.Engine.create kernel transform in
  let daplex_query =
    Daplex_dml.Parser.stmt
      "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT name(s) END"
  in
  let sql_engine = Relational.Engine.create (Mapping.Kernel.single ()) "bench" in
  ignore (Relational.Engine.run sql_engine "CREATE TABLE emp (name CHAR(10), salary INT)");
  List.iter
    (fun i ->
      ignore
        (Relational.Engine.run sql_engine
           (Printf.sprintf "INSERT INTO emp VALUES ('e%d', %d)" i (i * 10))))
    (List.init 200 Fun.id);
  [
    (* E1/E2 substrate *)
    Test.make ~name:"e1-store-select-indexed"
      (Staged.stage (fun () -> Abdm.Store.select store selective));
    Test.make ~name:"e1-store-select-scan"
      (Staged.stage (fun () -> Abdm.Store.select store range));
    Test.make ~name:"e1-mbds8-retrieve"
      (Staged.stage (fun () -> Mbds.Controller.select mbds8 range));
    (* E3 *)
    Test.make ~name:"e3-schema-transform"
      (Staged.stage (fun () -> Transformer.Transform.transform schema));
    (* E5 *)
    Test.make ~name:"e5-find-any-translate-exec"
      (Staged.stage (fun () ->
           Codasyl_dml.Engine.execute codasyl_session find_any));
    (* E8 per-language paths *)
    Test.make ~name:"e8-daplex-for-each"
      (Staged.stage (fun () -> Daplex_dml.Engine.execute daplex_engine daplex_query));
    Test.make ~name:"e8-sql-select"
      (Staged.stage (fun () ->
           Relational.Engine.run sql_engine
             "SELECT name FROM emp WHERE salary > 1500"));
    Test.make ~name:"e8-abdl-parse"
      (Staged.stage (fun () ->
           Abdl.Parser.request
             "RETRIEVE ((FILE = emp) AND (salary > 1500)) (name)"));
  ]

let run_micro_benchmarks () =
  banner "Wall-clock micro-benchmarks (Bechamel, ns/run)";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"mlds" (micro_tests ()))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | Some [] | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Printf.printf "%-40s %s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let display =
        if Float.is_nan ns then "n/a"
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Printf.printf "%-40s %s\n" name display)
    rows

(* Dump the whole metrics registry (the bench.* per-experiment latency
   histograms, plus the pipeline's own abdm.*/pool.*/mbds.* instruments)
   as JSON lines — the artifact CI parses and uploads. *)
let write_artifact path =
  Obs.Export.write_metrics_file path;
  Printf.printf "\nwrote metrics artifact %s\n" path

let () =
  let quick = Array.exists (String.equal "--quick") Sys.argv in
  if quick then begin
    (* CI smoke: exercise the paper claims, the DL/I and Daplex point
       reads and the parallel substrate end-to-end in a few seconds *)
    experiment_e1 ();
    experiment_e10_point_reads ();
    experiment_e12 ~quick:true ();
    write_artifact "BENCH_pr2.json";
    print_endline "\nbench quick-mode OK"
  end
  else begin
    experiment_e1 ();
    experiment_e2 ();
    experiment_e3 ();
    experiment_e4 ();
    experiment_e5 ();
    experiment_e6 ();
    experiment_e7 ();
    experiment_e8 ();
    experiment_e9 ();
    experiment_e10 ();
    experiment_e11 ();
    experiment_e12 ();
    run_micro_benchmarks ();
    write_artifact "BENCH_pr2.json";
    print_newline ()
  end

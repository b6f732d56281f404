(* Tests for the MBDS simulator: functional equivalence with a single
   store, placement, cost-model shape. *)

let emp name salary =
  Abdm.Record.make
    [
      Abdm.Keyword.file "employee";
      Abdm.Keyword.make "name" (Abdm.Value.Str name);
      Abdm.Keyword.make "salary" (Abdm.Value.Int salary);
    ]

let populate insert n =
  List.iter
    (fun i -> ignore (insert (emp (Printf.sprintf "e%d" i) (i * 10))))
    (List.init n (fun i -> i))

let test_create_validation () =
  Alcotest.(check bool) "zero backends rejected" true
    (match Mbds.Controller.create 0 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_placement_balance () =
  let c = Mbds.Controller.create 4 in
  populate (Mbds.Controller.insert c) 100;
  let sizes = Mbds.Controller.backend_sizes c in
  Alcotest.(check int) "4 backends" 4 (List.length sizes);
  List.iter (fun n -> Alcotest.(check int) "balanced" 25 n) sizes;
  Alcotest.(check int) "total" 100 (Mbds.Controller.size c)

let test_equivalence_with_single_store () =
  let c = Mbds.Controller.create 3 in
  let s = Abdm.Store.create () in
  populate (Mbds.Controller.insert c) 50;
  populate (Abdm.Store.insert s) 50;
  let q =
    Abdl.Parser.query "(FILE = employee) AND (salary >= 200) AND (salary < 400)"
  in
  let from_mbds = Mbds.Controller.select c q |> List.map fst in
  let from_store = Abdm.Store.select s q |> List.map fst in
  Alcotest.(check (list int)) "same keys in same order" from_store from_mbds

let test_requests_through_controller () =
  let c = Mbds.Controller.create 2 in
  populate (Mbds.Controller.insert c) 10;
  let run src = Mbds.Controller.run c (Abdl.Parser.request src) in
  begin
    match run "RETRIEVE ((FILE = employee)) (COUNT(name), SUM(salary))" with
    | Abdl.Exec.Rows [ row ] ->
      Alcotest.(check bool) "count 10" true
        (List.assoc "COUNT(name)" row.Abdl.Exec.values = Abdm.Value.Int 10);
      Alcotest.(check bool) "sum 450" true
        (List.assoc "SUM(salary)" row.Abdl.Exec.values = Abdm.Value.Int 450)
    | r -> Alcotest.failf "unexpected %s" (Abdl.Exec.result_to_string r)
  end;
  begin
    match run "UPDATE ((FILE = employee) AND (salary < 30)) (salary = salary + 1)" with
    | Abdl.Exec.Updated 3 -> ()
    | r -> Alcotest.failf "unexpected %s" (Abdl.Exec.result_to_string r)
  end;
  match run "DELETE ((FILE = employee) AND (salary > 50))" with
  | Abdl.Exec.Deleted 4 -> ()
  | r -> Alcotest.failf "unexpected %s" (Abdl.Exec.result_to_string r)

let test_get_and_replace () =
  let c = Mbds.Controller.create 3 in
  let k = Mbds.Controller.insert c (emp "x" 1) in
  begin
    match Mbds.Controller.get c k with
    | Some r ->
      Alcotest.(check bool) "get finds" true
        (Abdm.Record.value_of r "name" = Some (Abdm.Value.Str "x"))
    | None -> Alcotest.fail "expected record"
  end;
  Mbds.Controller.replace c k (emp "y" 2);
  match Mbds.Controller.get c k with
  | Some r ->
    Alcotest.(check bool) "replace visible" true
      (Abdm.Record.value_of r "name" = Some (Abdm.Value.Str "y"))
  | None -> Alcotest.fail "expected record"

(* The modelled seconds of one request: the cost model over the work the
   backend counters saw during the call and the rows it returned. *)
let modelled_run c q =
  let before = Mbds.Controller.backend_loads c in
  let rows =
    match Mbds.Controller.run c q with
    | Abdl.Exec.Rows rows -> List.length rows
    | _ -> 0
  in
  Mbds.Cost.of_loads Mbds.Cost.default ~before
    ~after:(Mbds.Controller.backend_loads c) ~results:rows

(* [trials] runs of a range RETRIEVE over [records] employees on
   [backends] backends, and the modelled time of each. A range predicate
   forces a partition scan (no equality index), with a small
   constant-size response — the paper's workload shape. *)
let retrieve_times ~trials backends records =
  let c = Mbds.Controller.create backends in
  populate (Mbds.Controller.insert c) records;
  let q =
    Abdl.Parser.request
      (Printf.sprintf
         "RETRIEVE ((FILE = employee) AND (salary > %d)) (name)"
         ((records - 5) * 10))
  in
  List.init trials (fun _ -> modelled_run c q)

(* The paper's claim 1: with DB size fixed, response time decreases nearly
   reciprocally in the number of backends. *)
let mean_retrieve_time backends records =
  List.fold_left ( +. ) 0. (retrieve_times ~trials:5 backends records) /. 5.

let test_cost_reciprocal_decrease () =
  let t1 = mean_retrieve_time 1 2000 in
  let t2 = mean_retrieve_time 2 2000 in
  let t8 = mean_retrieve_time 8 2000 in
  Alcotest.(check bool) "t2 < t1" true (t2 < t1);
  Alcotest.(check bool) "t8 < t2" true (t8 < t2);
  (* the parallel portion should shrink ~8x; allow generous slack for the
     fixed overhead and result-return terms *)
  Alcotest.(check bool) "t8 well under half of t1" true (t8 < t1 /. 2.)

(* Claim 2: growing data and backends together keeps response time
   invariant (within a small tolerance from merge costs). *)
let test_cost_capacity_invariance () =
  let t1 = mean_retrieve_time 1 500 in
  let t4 = mean_retrieve_time 4 2000 in
  let ratio = t4 /. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "invariant within 2.5x (ratio %.2f)" ratio)
    true
    (ratio < 2.5)

(* The first trial of the 4 000-record probe scans each whole partition
   (later trials may use the index the heat tracker builds): overhead,
   broadcast, 4 000 / n records scanned on the busiest backend, and 4 rows
   returned. These are E1's modelled times before any index. *)
let test_cost_first_trial_pinned () =
  List.iter
    (fun (backends, want) ->
      match retrieve_times ~trials:1 backends 4000 with
      | [ got ] ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "%d backends" backends) want got
      | _ -> Alcotest.fail "one trial")
    [ 1, 2.016; 2, 1.016; 4, 0.516; 8, 0.266; 16, 0.141 ]

(* E1's probe (bench/mbds_trials.ml) loads a fresh controller per trial,
   so every trial scans whole partitions: the five-trial mean equals the
   first trial, the model's figure above. *)
let test_cost_trial_mean_is_first_trial () =
  List.iter
    (fun (backends, want) ->
      let modelled =
        List.map fst (Mbds_trials.run ~backends ~records:4000 ~trials:5 ())
      in
      let mean = List.fold_left ( +. ) 0. modelled /. 5. in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%d backends: mean = first trial" backends)
        (List.hd modelled) mean;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "%d backends: the model's scan" backends)
        want mean)
    [ 1, 2.016; 2, 1.016; 4, 0.516; 8, 0.266; 16, 0.141 ]

(* The backend counters accumulate across requests: each full-file
   RETRIEVE scans every live record once, and the cost model reads a
   positive time from each request's share of them. *)
let test_stats_accumulate () =
  let c = Mbds.Controller.create ~name:"stats-accumulate" 2 in
  populate (Mbds.Controller.insert c) 4;
  let scanned () =
    List.fold_left (fun acc (s, _, _) -> acc + s) 0
      (Mbds.Controller.backend_loads c)
  in
  let s0 = scanned () in
  let q = Abdl.Parser.request "RETRIEVE ((FILE = employee)) (name)" in
  let t1 = modelled_run c q in
  let s1 = scanned () in
  let t2 = modelled_run c q in
  Alcotest.(check int) "two requests, four records each" 8 (scanned () - s0);
  Alcotest.(check int) "the first request's share" 4 (s1 - s0);
  Alcotest.(check bool) "time positive" true (t1 > 0. && t2 > 0.);
  Alcotest.(check (list (triple int int int))) "written: the four inserts"
    [ 0, 2, 2; 0, 2, 2 ]
    (List.map (fun (_, w, n) -> 0, w, n) (Mbds.Controller.backend_loads c))

let test_skew_validation () =
  Alcotest.(check bool) "NaN skew rejected" true
    (match Mbds.Controller.create ~placement:(Mbds.Controller.Skewed Float.nan) 2 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "negative skew rejected" true
    (match Mbds.Controller.create ~placement:(Mbds.Controller.Skewed (-0.1)) 2 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  Alcotest.(check bool) "skew above 1 rejected" true
    (match Mbds.Controller.create ~placement:(Mbds.Controller.Skewed 1.5) 2 with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* regression: degenerate skew over a single backend must behave exactly
   like a single store (it used to be an untested corner) *)
let test_degenerate_skew_single_backend () =
  let c = Mbds.Controller.create ~placement:(Mbds.Controller.Skewed 0.7) 1 in
  let s = Abdm.Store.create () in
  populate (Mbds.Controller.insert c) 20;
  populate (Abdm.Store.insert s) 20;
  Alcotest.(check (list int)) "all records on the one backend" [ 20 ]
    (Mbds.Controller.backend_sizes c);
  let q = Abdl.Parser.query "(FILE = employee) AND (salary >= 50)" in
  Alcotest.(check (list int)) "selects like a single store"
    (Abdm.Store.select s q |> List.map fst)
    (Mbds.Controller.select c q |> List.map fst);
  let k = Mbds.Controller.insert c (emp "solo" 999) in
  Mbds.Controller.replace c k (emp "solo2" 1000);
  Alcotest.(check bool) "get/replace round-trip" true
    (match Mbds.Controller.get c k with
     | Some r -> Abdm.Record.value_of r "name" = Some (Abdm.Value.Str "solo2")
     | None -> false)

let test_skew_routing_invariants () =
  (* full skew: every record on backend 0 *)
  let c1 = Mbds.Controller.create ~placement:(Mbds.Controller.Skewed 1.0) 4 in
  populate (Mbds.Controller.insert c1) 100;
  Alcotest.(check (list int)) "skew 1.0 routes all to backend 0"
    [ 100; 0; 0; 0 ]
    (Mbds.Controller.backend_sizes c1);
  (* zero skew: exactly round-robin *)
  let c0 = Mbds.Controller.create ~placement:(Mbds.Controller.Skewed 0.0) 4 in
  populate (Mbds.Controller.insert c0) 100;
  Alcotest.(check (list int)) "skew 0.0 is round-robin"
    [ 25; 25; 25; 25 ]
    (Mbds.Controller.backend_sizes c0);
  (* partial skew: backend 0 strictly max-loaded, nothing lost *)
  let c9 = Mbds.Controller.create ~placement:(Mbds.Controller.Skewed 0.9) 4 in
  populate (Mbds.Controller.insert c9) 400;
  let sizes = Mbds.Controller.backend_sizes c9 in
  Alcotest.(check int) "no records lost" 400 (List.fold_left ( + ) 0 sizes);
  let b0 = List.hd sizes in
  List.iteri
    (fun i n ->
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "backend 0 outweighs backend %d" i)
          true (b0 > n))
    sizes

(* backend_of_key must be deterministic: every inserted key stays
   reachable through get/replace round-trips under skewed placement *)
let test_skew_get_replace_determinism () =
  let c = Mbds.Controller.create ~placement:(Mbds.Controller.Skewed 0.5) 5 in
  let keys =
    List.map (fun i -> i, Mbds.Controller.insert c (emp (Printf.sprintf "e%d" i) i))
      (List.init 60 Fun.id)
  in
  List.iter
    (fun (i, k) ->
      begin
        match Mbds.Controller.get c k with
        | Some r ->
          Alcotest.(check bool) "get routes to the inserting backend" true
            (Abdm.Record.value_of r "name"
             = Some (Abdm.Value.Str (Printf.sprintf "e%d" i)))
        | None -> Alcotest.failf "key %d lost under skewed placement" k
      end;
      Mbds.Controller.replace c k (emp (Printf.sprintf "r%d" i) (i + 1));
      match Mbds.Controller.get c k with
      | Some r ->
        Alcotest.(check bool) "replace routes to the same backend" true
          (Abdm.Record.value_of r "name"
           = Some (Abdm.Value.Str (Printf.sprintf "r%d" i)))
      | None -> Alcotest.failf "key %d lost after replace" k)
    keys;
  Alcotest.(check int) "size invariant" 60 (Mbds.Controller.size c)

(* The sequential reference: every share runs on the caller. *)
let no_workers = Mbds.Pool.create 0

(* The tentpole guarantee: a controller on the shared pool is
   observationally identical to one without workers — byte-identical
   merged results. Up to 8 backends, so the caller and the workers share
   a broadcast's shares between them. *)
let test_parallel_matches_sequential () =
  let run_all backends pool =
    let c = Mbds.Controller.create ~pool backends in
    populate (Mbds.Controller.insert c) 300;
    let outputs = ref [] in
    List.iter
      (fun src ->
        let r = Mbds.Controller.run c (Abdl.Parser.request src) in
        outputs := Abdl.Exec.result_to_string r :: !outputs)
      [
        "RETRIEVE ((FILE = employee) AND (salary > 2500)) (name) BY name";
        "UPDATE ((FILE = employee) AND (salary < 500)) (salary = salary + 7)";
        "RETRIEVE ((FILE = employee)) (COUNT(name), SUM(salary))";
        "DELETE ((FILE = employee) AND (salary > 2900))";
        "RETRIEVE ((FILE = employee) AND (salary >= 400) AND (salary <= 900)) (name, salary) BY salary";
      ];
    let q_all = Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ] in
    let rows =
      Mbds.Controller.select c q_all
      |> List.map (fun (k, r) -> Printf.sprintf "%d:%s" k (Abdm.Record.to_string r))
    in
    List.rev !outputs, rows
  in
  for backends = 1 to 8 do
    let seq_out, seq_rows = run_all backends no_workers in
    let par_out, par_rows = run_all backends (Mbds.Pool.shared ()) in
    Alcotest.(check (list string)) "request results byte-identical" seq_out par_out;
    Alcotest.(check (list string)) "final contents byte-identical" seq_rows par_rows
  done

(* Concurrent broadcasts on one controller (several calling domains) must
   each count only their own scans: 4 domains x 200 full-file selects of
   1000 records examine exactly 800 000 records. *)
let test_concurrent_scan_counts () =
  let c = Mbds.Controller.create ~name:"scan-count" 2 in
  populate (Mbds.Controller.insert c) 1000;
  let scanned () =
    List.fold_left (fun acc (s, _, _) -> acc + s) 0
      (Mbds.Controller.backend_loads c)
  in
  let before = scanned () in
  let q_all = Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ] in
  List.init 4 (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to 200 do
            ignore (Mbds.Controller.select c q_all)
          done))
  |> List.iter Domain.join;
  Alcotest.(check int) "records examined" 800_000 (scanned () - before)

(* Runs [fs] on their own domains and returns their results; exits the
   process if they do not all finish within [timeout_s], so a lock-order
   deadlock fails the suite instead of hanging it. *)
let run_domains_within ~timeout_s fs =
  let finished = Atomic.make 0 in
  let domains =
    List.map
      (fun f ->
        Domain.spawn (fun () ->
            Fun.protect ~finally:(fun () -> Atomic.incr finished) f))
      fs
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  while Atomic.get finished < List.length fs && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  if Atomic.get finished < List.length fs then begin
    prerr_endline "concurrent broadcasts did not finish: deadlock";
    Unix._exit 3
  end;
  List.map Domain.join domains

(* Concurrent readers on a Multi kernel: several domains broadcast
   random selects on one controller, between serial mutation
   phases run from the main domain. Every reply equals the serial answer
   for its phase. *)
let prop_concurrent_reads_between_writes =
  QCheck2.Test.make
    ~name:"concurrent select broadcasts equal serial answers per phase"
    ~count:15
    QCheck2.Gen.(
      pair (int_range 2 6)
        (list_size (int_range 1 4)
           (pair
              (list_size (int_range 0 20) (pair (int_range 0 3) (int_range 0 9)))
              (list_size (int_range 1 8) (int_range 0 9)))))
    (fun (backends, phases) ->
      let c = Mbds.Controller.create backends in
      populate (Mbds.Controller.insert c) 40;
      let query v =
        Abdm.Query.conj
          [ Abdm.Predicate.file_eq "employee";
            Abdm.Predicate.make "salary" Abdm.Predicate.Le (Abdm.Value.Int (v * 40)) ]
      in
      let answer v =
        Mbds.Controller.select c (query v)
        |> List.map (fun (k, r) -> Printf.sprintf "%d=%s" k (Abdm.Record.to_string r))
        |> String.concat ";"
      in
      List.for_all
        (fun (writes, reads) ->
          List.iter
            (fun (op, v) ->
              match op with
              | 0 | 1 -> ignore (Mbds.Controller.insert c (emp "w" (v * 37)))
              | 2 -> ignore (Mbds.Controller.delete c (query (v / 3)))
              | _ ->
                ignore
                  (Mbds.Controller.update c (query v)
                     [ Abdm.Modifier.Set_arith
                         ("salary", Abdm.Modifier.Add, Abdm.Value.Int 5) ]))
            writes;
          let expected = List.map answer reads in
          let reader k () =
            (* each reader walks the reads in its own rotation *)
            let n = List.length reads in
            List.init (3 * n) (fun i ->
                let j = (i + k) mod n in
                j, answer (List.nth reads j))
          in
          run_domains_within ~timeout_s:30. (List.init 3 reader)
          |> List.for_all
               (List.for_all (fun (j, got) -> got = List.nth expected j)))
        phases)

(* The wall clock of a broadcast is its [mbds.broadcast] span: one per
   RETRIEVE, with one [mbds.backend] child per backend, whichever pool
   ran the shares. *)
let test_measured_time_recorded () =
  let check_mode pool =
    let c = Mbds.Controller.create ~pool 2 in
    populate (Mbds.Controller.insert c) 50;
    let q = Abdl.Parser.request "RETRIEVE ((FILE = employee)) (name)" in
    Obs.Span.reset ();
    Obs.Span.set_enabled true;
    let roots =
      Fun.protect
        ~finally:(fun () ->
          Obs.Span.set_enabled false;
          Obs.Span.reset ())
        (fun () ->
          ignore (Mbds.Controller.run c q);
          ignore (Mbds.Controller.run c q);
          Obs.Span.take_roots ())
    in
    Alcotest.(check (list string)) "one broadcast span per request"
      [ "mbds.broadcast"; "mbds.broadcast" ]
      (List.map (fun r -> r.Obs.Span.span_name) roots);
    List.iter
      (fun (r : Obs.Span.t) ->
        Alcotest.(check bool) "measured time non-negative" true (r.dur_s >= 0.);
        Alcotest.(check (list string)) "one share span per backend"
          [ "mbds.backend"; "mbds.backend" ]
          (List.map (fun (ch : Obs.Span.t) -> ch.span_name) r.children))
      roots
  in
  check_mode no_workers;
  check_mode (Mbds.Pool.shared ())

(* Equivalence property over random workloads. *)
let prop_mbds_equivalence =
  QCheck2.Test.make
    ~name:"MBDS select/update/delete agree with single store" ~count:60
    QCheck2.Gen.(
      pair
        (int_range 1 6)
        (list_size (int_range 0 30)
           (pair (int_range 0 3) (int_range 0 8))))
    (fun (backends, ops) ->
      let c = Mbds.Controller.create backends in
      let s = Abdm.Store.create () in
      List.iter
        (fun (op, v) ->
          let record = emp (Printf.sprintf "n%d" v) v in
          let q =
            Abdm.Query.conj
              [ Abdm.Predicate.file_eq "employee";
                Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int v) ]
          in
          match op with
          | 0 | 1 ->
            ignore (Mbds.Controller.insert c record);
            ignore (Abdm.Store.insert s record)
          | 2 ->
            ignore (Mbds.Controller.delete c q);
            ignore (Abdm.Store.delete s q)
          | _ ->
            let m = [ Abdm.Modifier.Set_arith ("salary", Abdm.Modifier.Add, Abdm.Value.Int 1) ] in
            ignore (Mbds.Controller.update c q m);
            ignore (Abdm.Store.update s q m))
        ops;
      let q_all = Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ] in
      let rows_c =
        Mbds.Controller.select c q_all
        |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)
      in
      let rows_s =
        Abdm.Store.select s q_all
        |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)
      in
      rows_c = rows_s)

(* Shared pool vs no workers on a randomized workload: same ops, same
   placement, byte-identical outputs and final contents. *)
let prop_parallel_equivalence =
  QCheck2.Test.make
    ~name:"parallel broadcast equals sequential on random workloads" ~count:40
    QCheck2.Gen.(
      triple
        (int_range 1 8)
        (option (int_range 0 10))
        (list_size (int_range 0 30)
           (pair (int_range 0 4) (int_range 0 8))))
    (fun (backends, skew_tenths, ops) ->
      let placement =
        match skew_tenths with
        | None -> Mbds.Controller.Round_robin
        | Some tenths -> Mbds.Controller.Skewed (float_of_int tenths /. 10.)
      in
      let trace pool =
        let c = Mbds.Controller.create ~placement ~pool backends in
        let log = ref [] in
        let emit s = log := s :: !log in
        List.iter
          (fun (op, v) ->
            let record = emp (Printf.sprintf "n%d" v) v in
            let q =
              Abdm.Query.conj
                [ Abdm.Predicate.file_eq "employee";
                  Abdm.Predicate.make "salary" Abdm.Predicate.Eq
                    (Abdm.Value.Int v) ]
            in
            match op with
            | 0 | 1 -> emit (string_of_int (Mbds.Controller.insert c record))
            | 2 -> emit (string_of_int (Mbds.Controller.delete c q))
            | 3 ->
              let m =
                [ Abdm.Modifier.Set_arith
                    ("salary", Abdm.Modifier.Add, Abdm.Value.Int 1) ]
              in
              emit (string_of_int (Mbds.Controller.update c q m))
            | _ ->
              emit
                (String.concat ";"
                   (Mbds.Controller.select c q
                   |> List.map (fun (k, r) ->
                          Printf.sprintf "%d=%s" k (Abdm.Record.to_string r)))))
          ops;
        let q_all = Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ] in
        let final =
          Mbds.Controller.select c q_all
          |> List.map (fun (k, r) ->
                 Printf.sprintf "%d=%s" k (Abdm.Record.to_string r))
        in
        List.rev !log, final
      in
      trace no_workers = trace (Mbds.Pool.shared ()))

(* Transactional workloads: BEGIN/COMMIT/ROLLBACK reach every backend
   under the same per-backend locks as the mutations they bracket, so a
   controller on the shared pool and one without workers must agree —
   including when a transaction is rolled back mid-workload. *)
let prop_parallel_equivalence_transactional =
  QCheck2.Test.make
    ~name:"parallel equals sequential on transactional workloads" ~count:40
    QCheck2.Gen.(
      triple
        (int_range 1 8)
        (option (int_range 0 10))
        (list_size (int_range 0 40)
           (pair (int_range 0 6) (int_range 0 8))))
    (fun (backends, skew_tenths, ops) ->
      let placement =
        match skew_tenths with
        | None -> Mbds.Controller.Round_robin
        | Some tenths -> Mbds.Controller.Skewed (float_of_int tenths /. 10.)
      in
      let trace pool =
        let c = Mbds.Controller.create ~placement ~pool backends in
        let in_txn = ref false in
        let log = ref [] in
        let emit s = log := s :: !log in
        List.iter
          (fun (op, v) ->
            let record = emp (Printf.sprintf "n%d" v) v in
            let q =
              Abdm.Query.conj
                [ Abdm.Predicate.file_eq "employee";
                  Abdm.Predicate.make "salary" Abdm.Predicate.Eq
                    (Abdm.Value.Int v) ]
            in
            match op with
            | 0 | 1 -> emit (string_of_int (Mbds.Controller.insert c record))
            | 2 -> emit (string_of_int (Mbds.Controller.delete c q))
            | 3 ->
              let m =
                [ Abdm.Modifier.Set_arith
                    ("salary", Abdm.Modifier.Add, Abdm.Value.Int 1) ]
              in
              emit (string_of_int (Mbds.Controller.update c q m))
            | 4 ->
              if not !in_txn then begin
                Mbds.Controller.begin_transaction c;
                in_txn := true;
                emit "begin"
              end
            | 5 ->
              if !in_txn then begin
                Mbds.Controller.commit c;
                in_txn := false;
                emit "commit"
              end
            | _ ->
              if !in_txn then begin
                Mbds.Controller.rollback c;
                in_txn := false;
                emit "rollback"
              end)
          ops;
        if !in_txn then Mbds.Controller.commit c;
        let q_all = Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ] in
        let final =
          Mbds.Controller.select c q_all
          |> List.map (fun (k, r) ->
                 Printf.sprintf "%d=%s" k (Abdm.Record.to_string r))
        in
        List.rev !log, final
      in
      trace no_workers = trace (Mbds.Pool.shared ()))

let test_parallel_transaction_rollback () =
  let c = Mbds.Controller.create 4 in
  let keys = List.map (fun i -> Mbds.Controller.insert c (emp "keep" i)) [ 1; 2; 3; 4; 5 ] in
  let before =
    Mbds.Controller.select c Abdm.Query.always
    |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)
  in
  Mbds.Controller.begin_transaction c;
  ignore (Mbds.Controller.insert c (emp "gone" 99));
  ignore
    (Mbds.Controller.update c
       (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ])
       [ Abdm.Modifier.Set_const ("salary", Abdm.Value.Int 0) ]);
  ignore
    (Mbds.Controller.delete c
       (Abdm.Query.conj
          [ Abdm.Predicate.file_eq "employee";
            Abdm.Predicate.make "salary" Abdm.Predicate.Eq (Abdm.Value.Int 0) ]));
  Mbds.Controller.rollback c;
  let after =
    Mbds.Controller.select c Abdm.Query.always
    |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)
  in
  Alcotest.(check bool) "rollback restores every backend" true (before = after);
  List.iter
    (fun k ->
      Alcotest.(check bool) "record reachable by key" true
        (Mbds.Controller.get c k <> None))
    keys

(* [Controller.insert_unique] on 2 backends, whose per-backend probes are
   [Store.exists], against the same controller contents driven through
   [select]: the same answers, keys and records. Inserts and deletes
   between probes; thresholds 1..4 put the probes before, at and after
   each backend's auto-index build. *)
let prop_insert_unique_is_select =
  QCheck2.Test.make ~name:"insert_unique on 2 backends = select-then-insert"
    ~count:150
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 30) Test_abdm.gen_probe_record)
        (list_size (int_range 1 40)
           (frequency
              [
                ( 6,
                  pair Test_abdm.gen_probe_record
                    (list_size (int_range 0 2) Test_abdm.gen_probe_query)
                  |> map (fun (r, probes) -> `Insert_unique (r, probes)) );
                (1, map (fun q -> `Delete q) Test_abdm.gen_probe_query);
              ])))
    (fun (records, ops) ->
      let fresh name =
        let c = Mbds.Controller.create ~name ~pool:no_workers 2 in
        List.iter (fun r -> ignore (Mbds.Controller.insert c r)) records;
        c
      in
      let probed = fresh "exists-probed" and selected = fresh "exists-selected" in
      let contents c = List.of_seq (Mbds.Controller.to_seq c) in
      List.for_all
        (function
          | `Insert_unique (r, probes) ->
            let got = Mbds.Controller.insert_unique probed r probes in
            let want =
              if List.exists (fun q -> Mbds.Controller.select selected q <> []) probes
              then None
              else Some (Mbds.Controller.insert selected r)
            in
            got = want
          | `Delete q -> Mbds.Controller.delete probed q = Mbds.Controller.delete selected q)
        ops
      && contents probed = contents selected)

(* [Controller.insert] and [insert_unique], which take each backend's
   lock directly and build no per-row closure, against the old write path
   over plain stores (test/mbds_write_oracle.ml): the same keys and
   contents and the same per-backend scanned/written counters, on 1 to 3
   backends. Probe lists
   may be empty (nothing to check) or hold scans the index cannot
   answer. *)
let write_oracle_runs = ref 0

let prop_write_matches_oracle =
  QCheck2.Test.make ~name:"insert/insert_unique = the old MBDS write path" ~count:150
    QCheck2.Gen.(
      pair (int_range 1 3)
        (list_size (int_range 1 40)
           (frequency
              [
                (2, map (fun r -> `Insert r) Test_abdm.gen_probe_record);
                ( 6,
                  pair Test_abdm.gen_probe_record
                    (list_size (int_range 0 2) Test_abdm.gen_probe_query)
                  |> map (fun (r, probes) -> `Insert_unique (r, probes)) );
              ])))
    (fun (n, ops) ->
      incr write_oracle_runs;
      (* a fresh name: fresh counters in the process-wide registry *)
      let name = Printf.sprintf "write-oracle-%d" !write_oracle_runs in
      let c = Mbds.Controller.create ~name ~pool:no_workers n in
      let o = Mbds_write_oracle.create n in
      List.for_all
        (function
          | `Insert r -> Mbds.Controller.insert c r = Mbds_write_oracle.insert o r
          | `Insert_unique (r, probes) ->
            Mbds.Controller.insert_unique c r probes
            = Mbds_write_oracle.insert_unique o r probes)
        ops
      && List.of_seq (Mbds.Controller.to_seq c) = Mbds_write_oracle.to_list o
      && Mbds.Controller.backend_loads c = Mbds_write_oracle.backend_loads o)

(* A store call that raises inside the write still releases the
   backend's lock: the next write to that backend goes through. *)
let test_write_releases_lock_on_raise () =
  let c = Mbds.Controller.create ~pool:no_workers 1 in
  let no_file = Abdm.Record.make [ Abdm.Keyword.make "a" (Abdm.Value.Int 1) ] in
  Alcotest.check_raises "a record without FILE"
    (Invalid_argument "Store: record has no FILE keyword") (fun () ->
      ignore (Mbds.Controller.insert c no_file));
  Alcotest.check_raises "again, on the same backend"
    (Invalid_argument "Store: record has no FILE keyword") (fun () ->
      ignore (Mbds.Controller.insert_unique c no_file []));
  ignore (Mbds.Controller.insert c (emp "after" 1));
  Alcotest.(check int) "the lock was released" 1 (Mbds.Controller.size c)

let workers_started () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "pool.workers_started")

(* A controller's pool starts its worker on the first broadcast: a
   thousand inserts, UNIQUE inserts and gets run on the caller alone. *)
let test_workers_start_on_first_broadcast () =
  let pool = Mbds.Pool.create 1 in
  let c = Mbds.Controller.create ~pool 2 in
  let w0 = workers_started () in
  let by_name i =
    [ Abdm.Query.conj
        [ Abdm.Predicate.file_eq "employee";
          Abdm.Predicate.make "name" Abdm.Predicate.Eq
            (Abdm.Value.Str (Printf.sprintf "e%d" i)) ] ]
  in
  for i = 0 to 333 do
    ignore (Mbds.Controller.insert c (emp (Printf.sprintf "x%d" i) i));
    ignore
      (Mbds.Controller.insert_unique c (emp (Printf.sprintf "e%d" (i mod 300)) i)
         (by_name (i mod 300)));
    ignore (Mbds.Controller.get c (i + 1))
  done;
  Alcotest.(check int) "1000 insert/insert_unique/get: no domain started" 0
    (workers_started () - w0);
  Alcotest.(check int) "the UNIQUE inserts held" 300
    (Mbds.Controller.count c "employee" - 334);
  ignore (Mbds.Controller.select c (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ]));
  Alcotest.(check int) "the first select starts the one worker" 1
    (workers_started () - w0);
  ignore (Mbds.Controller.select c (Abdm.Query.conj [ Abdm.Predicate.file_eq "employee" ]));
  Alcotest.(check int) "later broadcasts start none" 1 (workers_started () - w0);
  Mbds.Pool.shutdown pool

let suite =
  [
    "create validation", `Quick, test_create_validation;
    "placement balance", `Quick, test_placement_balance;
    "equivalence with single store", `Quick, test_equivalence_with_single_store;
    "requests through controller", `Quick, test_requests_through_controller;
    "get and replace", `Quick, test_get_and_replace;
    "cost: reciprocal decrease", `Quick, test_cost_reciprocal_decrease;
    "cost: capacity invariance", `Quick, test_cost_capacity_invariance;
    "stats accumulate", `Quick, test_stats_accumulate;
    "skew validation", `Quick, test_skew_validation;
    "degenerate skew on one backend", `Quick, test_degenerate_skew_single_backend;
    "skew routing invariants", `Quick, test_skew_routing_invariants;
    "skew get/replace determinism", `Quick, test_skew_get_replace_determinism;
    "parallel matches sequential", `Quick, test_parallel_matches_sequential;
    "measured wall clock recorded", `Quick, test_measured_time_recorded;
    "parallel transaction rollback", `Quick, test_parallel_transaction_rollback;
    "concurrent broadcasts count own scans", `Quick, test_concurrent_scan_counts;
    QCheck_alcotest.to_alcotest prop_mbds_equivalence;
    QCheck_alcotest.to_alcotest prop_parallel_equivalence;
    QCheck_alcotest.to_alcotest prop_parallel_equivalence_transactional;
    QCheck_alcotest.to_alcotest prop_concurrent_reads_between_writes;
    QCheck_alcotest.to_alcotest prop_insert_unique_is_select;
    QCheck_alcotest.to_alcotest prop_write_matches_oracle;
    "a raising write releases the backend lock", `Quick,
    test_write_releases_lock_on_raise;
    "workers start on the first broadcast", `Quick,
    test_workers_start_on_first_broadcast;
    "cost: first-trial partition scan pinned", `Quick,
    test_cost_first_trial_pinned;
    "cost: E1's trial mean is its first trial", `Quick,
    test_cost_trial_mean_is_first_trial;
  ]

(* The two MBDS performance claims of §I.B.2, demonstrated on the
   simulator: (1) with the database size fixed, response time falls nearly
   reciprocally in the number of backends; (2) growing the database and the
   backends together keeps response time invariant. A third section makes
   claim 1 physical: the same broadcast dispatched to real OCaml 5 worker
   domains, with measured wall clock next to the modelled time. *)

(* the mean modelled seconds of the claim probe (a range retrieval with
   a small response: the backends scan their whole partitions in
   parallel), one fresh controller per trial *)
let modelled ~backends ~records =
  let times = Mbds_trials.run ~backends ~records ~trials:5 () in
  List.fold_left (fun acc (m, _) -> acc +. m) 0. times /. 5.

(* measured wall clock of a selection matching half of [records] (the
   broadcast and the merge by key): a fresh controller per trial, median
   of [trials] *)
let median_wall ~pool ~backends ~records ~trials =
  let q =
    Abdl.Parser.query
      (Printf.sprintf "(FILE = employee) AND (salary >= %d)" (records / 2 * 10))
  in
  let trial () =
    let c = Mbds.Controller.create ~pool backends in
    for i = 0 to records - 1 do
      ignore (Mbds.Controller.insert c (Mbds_trials.employee_record i))
    done;
    let t0 = Obs.Clock.now_s () in
    ignore (Mbds.Controller.select c q);
    Obs.Clock.since t0
  in
  let xs = List.sort Float.compare (List.init trials (fun _ -> trial ())) in
  List.nth xs (trials / 2)

let () =
  let base_records = 4000 in
  print_endline "Claim 1: fixed database, growing backends (response-time reduction)";
  Printf.printf "  %-10s %-16s %s\n" "backends" "response (s)" "speedup vs 1";
  let t1 = modelled ~backends:1 ~records:base_records in
  List.iter
    (fun n ->
      let tn = modelled ~backends:n ~records:base_records in
      Printf.printf "  %-10d %-16.4f %.2fx\n" n tn (t1 /. tn))
    [ 1; 2; 4; 8 ];
  print_newline ();
  print_endline
    "Claim 2: database and backends grown together (response-time invariance)";
  Printf.printf "  %-10s %-10s %-16s %s\n" "backends" "records" "response (s)"
    "vs baseline";
  let base = modelled ~backends:1 ~records:1000 in
  List.iter
    (fun n ->
      let tn = modelled ~backends:n ~records:(1000 * n) in
      Printf.printf "  %-10d %-10d %-16.4f %.2fx\n" n (1000 * n) tn (tn /. base))
    [ 1; 2; 4; 8 ];
  print_newline ();
  print_endline
    "Claim 1, physically: the same broadcast on real worker domains";
  let shared = Mbds.Pool.shared () in
  let sequential = Mbds.Pool.create 0 in
  Printf.printf "  (recommended domain count here: %d; shared pool: %d workers)\n"
    (Domain.recommended_domain_count ()) (Mbds.Pool.size shared);
  Printf.printf "  %-10s %-20s %-20s %s\n" "backends" "no workers (us)"
    "shared pool (us)" "speedup";
  List.iter
    (fun n ->
      let wall pool = median_wall ~pool ~backends:n ~records:20000 ~trials:31 in
      let seq = wall sequential in
      let par = wall shared in
      Printf.printf "  %-10d %-20.1f %-20.1f %.2fx\n" n (seq *. 1e6)
        (par *. 1e6) (seq /. par))
    [ 2; 4; 8 ]

(* Tests for the benchmark's own code: deterministic op streams, exact
   rank percentiles, and the Stats-delta reader. *)

open Perfbench
module W = Workloads

let catalog = { W.employee_keys = Array.init 600 (fun i -> 17 + (2 * i)) }

let stream w ~seed ~client n =
  let next = W.ops w ~seed ~client catalog in
  String.concat "\n" (List.init n (fun _ -> W.render (next ())))

let test_same_seed () =
  List.iter
    (fun w ->
      for client = 0 to W.clients - 1 do
        let a = stream w ~seed:7 ~client 3000 and b = stream w ~seed:7 ~client 3000 in
        Alcotest.(check bool) (W.name w ^ " byte-identical") true (String.equal a b)
      done)
    W.all

let test_seeds_differ () =
  List.iter
    (fun w ->
      let a = stream w ~seed:7 ~client:0 500 and b = stream w ~seed:8 ~client:0 500 in
      Alcotest.(check bool) (W.name w ^ " seeds differ") false (String.equal a b);
      let c0 = stream w ~seed:7 ~client:0 500 and c1 = stream w ~seed:7 ~client:1 500 in
      Alcotest.(check bool) (W.name w ^ " clients differ") false (String.equal c0 c1))
    W.all

(* oltp-point: ~10% writes, over far more distinct texts than the
   512-entry statement cache; scan-mbds reads: under 64 distinct texts *)
let test_mix () =
  let ops w n =
    let next = W.ops w ~seed:3 ~client:0 catalog in
    List.init n (fun _ -> next ())
  in
  let oltp = ops W.Oltp_point 20_000 in
  let writes = List.length (List.filter (fun o -> o.W.kind = W.Write) oltp) in
  let share = float_of_int writes /. 20_000. in
  Alcotest.(check bool) (Printf.sprintf "oltp write share %.3f" share) true (share > 0.08 && share < 0.12);
  let distinct l = List.length (List.sort_uniq compare l) in
  Alcotest.(check bool) "oltp texts >> 512" true (distinct (List.map (fun o -> o.W.text) oltp) > 2000);
  let scan = ops W.Scan_mbds 5000 in
  let reads = List.filter_map (fun o -> if o.W.kind = W.Read then Some o.W.text else None) scan in
  Alcotest.(check bool) "scan reads < 64 texts" true (distinct reads < 64)

(* The reference: the smallest sample x with at least p% of the samples
   at or below it. *)
let reference samples p =
  let s = List.sort Float.compare samples in
  let n = float_of_int (List.length s) in
  let rec go i = function
    | x :: rest -> if float_of_int (i + 1) >= p /. 100. *. n -. 1e-9 then x else go (i + 1) rest
    | [] -> Float.nan
  in
  go 0 s

let test_rank () =
  let st = Random.State.make [| 42 |] in
  for trial = 1 to 200 do
    let n = 1 + Random.State.int st (if trial mod 2 = 0 then 50 else 3000) in
    let samples = List.init n (fun _ -> Random.State.float st 1000.) in
    let sorted = Pct.sorted_copy (Array.of_list samples) in
    List.iter
      (fun p ->
        Alcotest.(check (float 0.)) (Printf.sprintf "n=%d p=%g" n p) (reference samples p)
          (Pct.rank sorted p))
      [ 1.; 25.; 50.; 90.; 99.; 99.9; 100. ]
  done;
  (* fixed cases where p/100 * n is not exact in floating point *)
  List.iter
    (fun n ->
      let sorted = Array.init n float_of_int in
      Alcotest.(check (float 0.)) (Printf.sprintf "p99.9 of %d" n)
        (float_of_int ((n * 999 / 1000) - 1))
        (Pct.rank sorted 99.9))
    [ 1000; 2000; 3000 ];
  let s = Pct.sorted_copy [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.(check (float 0.)) "p50 of 1..5" 3. (Pct.rank s 50.);
  Alcotest.(check int) "beyond p80" 1 (Pct.beyond s (Pct.rank s 80.))

(* trimmed from a real Stats reply *)
let captured_before =
  {|{"now":1790000000.1,"uptime_s":2.5,"pid":4242,"sessions":2,"connections":2,"queue_depth":0,"queue_capacity":64,"batch":true,"max_batch":32,"shards":[{"id":0,"queue_depth":0,"sessions":2,"batches":812}],"recorder":{"capacity":4096,"next_seq":3301,"slow_next_seq":0,"slow_threshold_s":0.1},"session_list":[],"metrics":[{"type":"counter","name":"server.requests_total","value":3300},{"type":"counter","name":"stmt_cache.hit","value":1000},{"type":"counter","name":"stmt_cache.miss","value":500},{"type":"gauge","name":"wal.bytes","value":1024},{"type":"histogram","name":"wal.fsync_s","count":100,"mean":0.0004,"min":0.0001,"max":0.002,"p50":0.0005,"p90":0.001,"p99":0.002}]}|}

let captured_after =
  {|{"now":1790000010.1,"uptime_s":12.5,"pid":4242,"sessions":2,"connections":2,"queue_depth":0,"queue_capacity":64,"batch":true,"max_batch":32,"shards":[],"recorder":null,"session_list":[],"metrics":[{"type":"counter","name":"server.requests_total","value":9300},{"type":"counter","name":"stmt_cache.hit","value":4000},{"type":"counter","name":"stmt_cache.miss","value":2000},{"type":"gauge","name":"wal.bytes","value":4096},{"type":"histogram","name":"wal.fsync_s","count":300,"mean":0.0003,"min":0.0001,"max":0.002,"p50":0.0005,"p90":0.001,"p99":0.002},{"type":"counter","name":"mbds.shop.be0.scanned","value":30},{"type":"counter","name":"mbds.shop.be1.scanned","value":10}]}|}

let test_stats_delta () =
  let parse s = match Statsjson.parse s with Ok v -> v | Error e -> Alcotest.fail e in
  let d = Statsjson.delta ~before:(parse captured_before) ~after:(parse captured_after) in
  let close = Alcotest.float 1e-9 in
  Alcotest.check close "counter delta" 6000. (Statsjson.counter d "server.requests_total");
  Alcotest.check close "cache hits" 3000. (Statsjson.counter d "stmt_cache.hit");
  Alcotest.check close "gauge keeps the later value" 4096. (Statsjson.counter d "wal.bytes");
  Alcotest.check close "hist count" 200. (Statsjson.hist_count d "wal.fsync_s");
  (* (300 * 0.0003 - 100 * 0.0004) / 200 *)
  Alcotest.check close "hist mean" 0.00025 (Statsjson.hist_mean d "wal.fsync_s");
  Alcotest.check close "new counter counts from zero" 40.
    (List.fold_left ( +. ) 0. (Statsjson.counters_matching d ~prefix:"mbds." ~suffix:".scanned"));
  Alcotest.(check bool) "no metrics array is an error" true
    (Result.is_error (Statsjson.parse {|{"now":1}|}))

let test_self_time () =
  let t = Trace.create () in
  let sp id parent name start dur = Trace.add t { Trace.id; parent; op = 1; name; start; dur } in
  (* children first: two overlapping children cover [1,4] of the root's
     [0,10]; the second child has a child of its own *)
  sp 2 1 "leaf" 1. 2.;
  sp 4 3 "grandchild" 2.5 0.5;
  sp 3 1 "child" 2. 2.;
  sp 1 0 "root" 0. 10.;
  let self name =
    match List.assoc_opt name (Trace.summary t) with
    | Some (_, _, self) -> self
    | None -> Alcotest.fail name
  in
  Alcotest.(check (float 1e-9)) "root self" 7. (self "root");
  Alcotest.(check (float 1e-9)) "child with a child" 1.5 (self "child");
  Alcotest.(check (float 1e-9)) "leaf" 2. (self "leaf")

let () =
  Alcotest.run "perfbench"
    [ ( "streams",
        [ Alcotest.test_case "same seed, same stream" `Quick test_same_seed;
          Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "workload mix" `Quick test_mix ] );
      ( "measurement",
        [ Alcotest.test_case "rank percentile = sorted reference" `Quick test_rank;
          Alcotest.test_case "stats delta reader" `Quick test_stats_delta;
          Alcotest.test_case "span self time" `Quick test_self_time ] ) ]

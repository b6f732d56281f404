(* Bounded server memory: no per-request state outlives its request.

   The live-heap tests run many requests against long-lived interface
   state — one SQL engine shared by every handle on a relational
   database, one DL/I handle — and check that the live heap after a
   full major collection stays flat within a stated bound. The
   session-churn test drives a socket server the way the benchmark's
   clients do (login, 16 requests, logout, repeated) across all five
   languages and checks that the server-lifetime tables return to
   their baseline. *)

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* [growth f] is the live-heap growth, in bytes, across [f ()]. *)
let growth f =
  let before = live_bytes () in
  f ();
  live_bytes () - before

let check_flat what ~requests ~bound_bytes grown =
  if grown > bound_bytes then
    Alcotest.failf "%s: live heap grew %d B over %d requests (%.1f B each; \
                    bound %d B)"
      what grown requests
      (float_of_int grown /. float_of_int requests)
      bound_bytes

let ok_submit h src =
  match Mlds.System.submit_handle h src with
  | Ok out -> out
  | Error e ->
    Alcotest.failf "submit %s: %s" src (Mlds.System.handle_error_to_string e)

let open_h t language ~db =
  match Mlds.System.open_handle t language ~db with
  | Ok h -> h
  | Error msg -> Alcotest.failf "open %s: %s" db msg

let rows = 100

let payroll t =
  (match Mlds.System.define_relational t ~name:"payroll" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "define payroll: %s" msg);
  let h = open_h t Mlds.System.L_sql ~db:"payroll" in
  ignore (ok_submit h "CREATE TABLE emp (id INT, name CHAR(12), salary INT)");
  for i = 0 to rows - 1 do
    ignore
      (ok_submit h
         (Printf.sprintf "INSERT INTO emp VALUES (%d, 'e%d', %d)" i i (i * 10)))
  done;
  Mlds.System.close_handle h

let medical_ddl =
  {|DATABASE medical
SEGMENT patient (pname CHAR(20), pid INT)
SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)|}

let patients = 40

let medical t =
  (match Mlds.System.define_hierarchical t ~name:"medical" ~ddl:medical_ddl with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "define medical: %s" msg);
  let h = open_h t Mlds.System.L_dli ~db:"medical" in
  for p = 1 to patients do
    ignore
      (ok_submit h
         (Printf.sprintf
            "ISRT patient (pname = 'p%d', pid = %d)\n\
             ISRT patient(pid = %d) visit (vdate = 'Jan', cost = %d)"
            p p p (p * 10)))
  done;
  Mlds.System.close_handle h

(* (a) 20 000 SQL point SELECTs, each through a fresh handle: every
   handle on [payroll] shares the database's one SQL engine, which
   lives as long as the system. While nothing reset the engine's
   request log, the log kept every request: ~4 MB here, ~200 B per
   request. Bound: 256 KiB, about 13 B per request. *)
let test_shared_sql_engine_flat () =
  let t = Mlds.System.create () in
  payroll t;
  let select i =
    Printf.sprintf "SELECT name FROM emp WHERE id = %d" (i mod rows)
  in
  let run n =
    for i = 1 to n do
      let h = open_h t Mlds.System.L_sql ~db:"payroll" in
      ignore (ok_submit h (select i));
      Mlds.System.close_handle h
    done
  in
  (* warm-up: fills the statement cache and lets the planner build its
     index, both bounded and both outside the measured window *)
  run 1_000;
  let requests = 20_000 in
  let grown = growth (fun () -> run requests) in
  (* the system, and the engine it shares, must outlive the measurement *)
  run 1;
  check_flat "shared SQL engine" ~requests ~bound_bytes:(256 * 1024) grown

(* (b) 1 000 DL/I GU calls on one long-lived handle. A GU walks the
   hierarchic sequence with one kernel request per parent instance, so
   each call issues ~40 requests here; a log that outlived the call
   grew by ~15 MB. Bound: 128 KiB. *)
let test_dli_handle_flat () =
  let t = Mlds.System.create () in
  medical t;
  let h = open_h t Mlds.System.L_dli ~db:"medical" in
  let gu i =
    Printf.sprintf "GU patient(pid = %d) visit(vdate = 'Jan')"
      (1 + (i mod patients))
  in
  let run n =
    for i = 1 to n do
      ignore (ok_submit h (gu i))
    done
  in
  run 100;
  let requests = 1_000 in
  check_flat "DL/I handle" ~requests ~bound_bytes:(128 * 1024)
    (growth (fun () -> run requests));
  Mlds.System.close_handle h

(* --- session churn over the socket ------------------------------------- *)

let stmt_cache_capacity = 16

let churn_system () =
  let t = Mlds.System.create ~stmt_cache_capacity () in
  (match
     Mlds.System.define_functional t ~name:"university"
       ~ddl:Daplex.University.ddl Daplex.University.rows
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "define university: %s" msg);
  payroll t;
  medical t;
  t

(* One session's 16 requests per language. Keys vary with the round, so
   the statement texts outnumber the cache's capacity. *)
let requests language round =
  List.init 16 (fun i ->
      let k = (round * 16) + i in
      match language with
      | "sql" ->
        if i mod 4 = 3 then
          Printf.sprintf "UPDATE emp SET salary = %d WHERE id = %d" k (k mod rows)
        else Printf.sprintf "SELECT name FROM emp WHERE id = %d" (k mod rows)
      | "dli" ->
        Printf.sprintf "GU patient(pid = %d)" (1 + (k mod patients))
      | "daplex" ->
        Printf.sprintf
          "FOR EACH c IN course SUCH THAT credits(c) = %d PRINT title(c) END"
          (1 + (k mod 4))
      | "codasyl" ->
        if i mod 2 = 0 then
          Printf.sprintf "MOVE %d TO credits IN course" (1 + (k mod 4))
        else "FIND ANY course USING credits IN course"
      | _ ->
        if i mod 4 = 3 then
          Printf.sprintf "INSERT (<FILE, churn>, <seq, %d>)" k
        else Printf.sprintf "RETRIEVE ((FILE = churn) AND (seq = %d)) (seq)" k)

let db_of = function
  | "sql" -> "payroll"
  | "dli" -> "medical"
  | _ -> "university"

let test_session_churn () =
  let t = churn_system () in
  match Server.Core.create ~config:{ Server.Core.default_config with port = 0 } t with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Server.Core.shutdown server)
      (fun () ->
        let port = Server.Core.port server in
        let c =
          match Client.connect ~port () with
          | Ok c -> c
          | Error msg -> Alcotest.failf "connect: %s" msg
        in
        let baseline = Server.Core.session_count server in
        let fail what e =
          Alcotest.failf "%s: %s" what (Client.error_to_string e)
        in
        let languages = [ "sql"; "dli"; "daplex"; "codasyl"; "abdl" ] in
        for round = 0 to 7 do
          List.iter
            (fun language ->
              (match Client.login c ~language ~db:(db_of language) () with
              | Ok _ -> ()
              | Error e -> fail ("login " ^ language) e);
              (* every other round wraps the session in a transaction;
                 odd rounds of ABDL leave it open for logout to abort *)
              let txn = round mod 2 = 1 in
              if txn then (
                match Client.begin_txn c with
                | Ok () -> ()
                | Error e -> fail "begin" e);
              List.iter
                (fun src ->
                  match Client.submit c src with
                  | Ok _ -> ()
                  | Error e -> fail (language ^ ": " ^ src) e)
                (requests language round);
              if txn && language <> "abdl" then (
                match Client.commit_txn c with
                | Ok () -> ()
                | Error e -> fail "commit" e);
              match Client.logout c with
              | Ok () -> ()
              | Error e -> fail "logout" e)
            languages
        done;
        Client.close c;
        let rec settle tries =
          if Server.Core.session_count server <> baseline && tries > 0 then (
            Thread.delay 0.01;
            settle (tries - 1))
        in
        settle 500;
        Alcotest.(check int) "sessions back to baseline" baseline
          (Server.Core.session_count server);
        List.iter
          (fun (db, _model) ->
            Alcotest.(check (option int)) ("no txn owner on " ^ db) None
              (Mlds.System.txn_owner t ~db))
          (Mlds.System.databases t);
        let cache = Mlds.System.stmt_cache t in
        Alcotest.(check bool) "statement cache within its capacity" true
          (Mlds.Stmt_cache.length cache <= stmt_cache_capacity);
        Alcotest.(check bool) "statement cache saw more texts than it holds"
          true
          (Mlds.Stmt_cache.misses cache > stmt_cache_capacity))

(* The heap gauges are sampled when Stats is served: an operator reads
   the server's live heap from Stats (and mlds_top) without a profiler. *)
let test_stats_heap_gauges () =
  let t = Mlds.System.create () in
  match Server.Core.create ~config:{ Server.Core.default_config with port = 0 } t with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Server.Core.shutdown server)
      (fun () ->
        let c =
          match Client.connect ~port:(Server.Core.port server) () with
          | Ok c -> c
          | Error msg -> Alcotest.failf "connect: %s" msg
        in
        let stats =
          match Client.stats c with
          | Ok out ->
            (match Obs.Json.parse out with
            | Ok json -> json
            | Error msg -> Alcotest.failf "Stats is not JSON: %s" msg)
          | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e)
        in
        Client.close c;
        let gauge name =
          match Obs.Json.member "metrics" stats with
          | Some (Obs.Json.Arr items) ->
            List.find_map
              (fun item ->
                if Obs.Json.str_member "name" item = Some name then
                  Obs.Json.num_member "value" item
                else None)
              items
          | _ -> None
        in
        let heap = gauge "proc.heap_words" and live = gauge "proc.live_words" in
        Alcotest.(check bool) "heap words reported" true
          (match heap with Some w -> w > 0. | None -> false);
        Alcotest.(check bool) "live words reported, within the heap" true
          (match heap, live with
          | Some h, Some l -> l > 0. && l <= h
          | _ -> false))

(* Promoted words per op on the benchmark's oltp-point request path:
   client 0's first 20 000 ops after the seed-1 preload, in-process
   ([Oltp_words], also printed by [bench/request_words.exe]). Promotion
   is what grows the major heap, and so the server's RSS; minor garbage
   is not (E33). Its Zipf keys reach far past the 512-entry statement
   cache: a cache that admits every text on its first miss keeps each
   one-off text's parse tree until it is evicted, which promotes ~59
   words an op; admission on the second miss promotes ~29 (E34). *)
let promoted_words_bound = 40.

let test_oltp_promoted_words () =
  let r = Oltp_words.run ~seed:1 ~ops:20_000 () in
  let per_op = Oltp_words.per_op r r.promoted in
  if per_op > promoted_words_bound then
    Alcotest.failf "oltp-point stream: %.1f promoted words an op over %d ops \
                    (bound %.0f)"
      per_op r.ran promoted_words_bound

(* Kept memory on the benchmark's oltp-point request path: the live
   heap after a full major collection at two points of client 0's
   stream ([Oltp_words]), 10 000 and 40 000 ops in, both after the
   512-entry statement cache has filled (it is full by op 5 000). Its
   writes are UPDATEs, so the data does not grow: the two readings
   differ by a few hundred words either way (400 408 to 401 061 words
   from op 5 000 to op 80 000). A request log kept by the shared SQL
   engine for its lifetime, the leak that bounded memory removed, adds
   ~405 000 words between them. Bound: 4 096 words, about a byte an op. *)
let kept_words_bound = 4_096

let test_oltp_live_heap_flat () =
  let first = 10_000 and last = 40_000 in
  let live = Array.make 2 0 in
  let each i =
    if i = first || i = last then begin
      Gc.full_major ();
      live.(if i = first then 0 else 1) <- (Gc.stat ()).Gc.live_words
    end
  in
  ignore (Oltp_words.run ~seed:1 ~ops:last ~each ());
  let grown = live.(1) - live.(0) in
  if grown > kept_words_bound then
    Alcotest.failf "oltp-point stream: live heap grew %d words from op %d to \
                    op %d (%d -> %d; bound %d)"
      grown first last live.(0) live.(1) kept_words_bound

let suite =
  [
    "shared SQL engine: live heap flat over 20 000 SELECTs", `Quick,
    test_shared_sql_engine_flat;
    "DL/I handle: live heap flat over 1 000 GU calls", `Quick,
    test_dli_handle_flat;
    "session churn: server tables return to baseline", `Quick,
    test_session_churn;
    "Stats reports the heap gauges", `Quick, test_stats_heap_gauges;
    "oltp-point: promoted words per op", `Quick, test_oltp_promoted_words;
    "oltp-point: live heap flat after the statement cache fills", `Quick,
    test_oltp_live_heap_flat;
  ]

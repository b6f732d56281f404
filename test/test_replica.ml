(* WAL streaming replication, end to end: a real primary server shipping
   to a real standby over sockets — stale reads, typed Read_only
   refusal, lag in Stats, promote over the wire and by API, truncation
   remap vs snapshot re-bootstrap, restart resume — plus the qcheck
   failover drill: random workload × random kill point × promote must
   leave the promoted standby exactly equal to a fresh replay of the
   primary-WAL prefix the standby had acknowledged. The stream itself,
   on the primary's I/O loop, is driven by raw-socket fake subscribers:
   its window, its heartbeats, a subscriber that stops reading, and the
   primary's thread count.

   The in-process standbys here use a pass-through inject (apply on the
   stream thread): nothing else touches the standby kernel until the
   stream is stopped, which is exactly the invariant the server's
   executor provides in production. The socket tests use the full
   [Replica.Bridge] wiring — the same code path the binary runs. *)

module Wire = Server.Wire

let contains text needle = Daplex.Str_search.find text needle <> None

let university ?fs () =
  let t = Mlds.System.create ?fs () in
  match
    Mlds.System.define_functional t ~name:"university"
      ~ddl:Daplex.University.ddl Daplex.University.rows
  with
  | Ok () -> t
  | Error msg -> Alcotest.failf "define university: %s" msg

let rec wait_for ?(tries = 1000) what pred =
  if pred () then ()
  else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) what pred
  end

let fresh_path tag =
  let p = Filename.temp_file ("mldsrepl" ^ tag) ".wal" in
  Sys.remove p;
  p

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; path ^ ".boot"; path ^ ".origin"; path ^ ".snapshot" ]

(* A live primary: university + WAL + server + shipper, torn down in
   order (ship first — the drain checkpoint truncates the WAL). *)
let with_primary ?(config = Server.Core.default_config) f =
  let t = university () in
  let wal_path = fresh_path "p" in
  (match Mlds.System.attach_wal t ~db:"university" ~file:wal_path with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "attach_wal: %s" e);
  match
    Server.Core.create
      ~config:{ config with port = 0 }
      t
  with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server ->
    let ship =
      match Replica.Bridge.enable_primary server ~system:t ~db:"university" with
      | Some ship -> ship
      | None -> Alcotest.fail "enable_primary found no WAL"
    in
    Fun.protect
      ~finally:(fun () ->
        Replica.Ship.shutdown ship;
        Server.Core.shutdown server;
        cleanup wal_path)
      (fun () -> f t server (Server.Core.port server) wal_path ship)

(* A server-backed standby of [pport] (the Bridge wiring, as in the
   binary). *)
let with_standby_server ?(config = Server.Core.default_config) pport f =
  let t2 = university () in
  let wal_path = fresh_path "s" in
  match
    Server.Core.create
      ~config:{ config with port = 0 }
      t2
  with
  | Error msg -> Alcotest.failf "standby server create: %s" msg
  | Ok server2 ->
    let st =
      Replica.Bridge.start_standby server2 ~system:t2 ~db:"university"
        ~wal_path ~host:"127.0.0.1" ~port:pport
    in
    Fun.protect
      ~finally:(fun () ->
        Replica.Standby.shutdown st;
        Server.Core.shutdown server2;
        cleanup wal_path)
      (fun () -> f t2 server2 (Server.Core.port server2) st)

(* A kernel-only standby (no server): apply on the stream thread. *)
let bare_standby ?fs ?wal_path pport =
  let t2 = university ?fs () in
  let wal_path = match wal_path with Some p -> p | None -> fresh_path "b" in
  let st =
    Replica.Standby.start ~system:t2 ~db:"university" ~wal_path
      ~host:"127.0.0.1" ~port:pport
      ~inject:(fun f -> f ())
      ()
  in
  (t2, st, wal_path)

let logged_in ?(language = "abdl") port =
  match Client.connect ~port () with
  | Error msg -> Alcotest.failf "connect: %s" msg
  | Ok c ->
    (match Client.login c ~language ~db:"university" () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "login: %s" (Client.error_to_string e));
    c

let csubmit c src =
  match Client.submit c src with
  | Ok out -> out
  | Error e -> Alcotest.failf "submit %s: %s" src (Client.error_to_string e)

let insert_stmt i =
  Printf.sprintf
    "INSERT (<FILE, 'person'>, <person, %d>, <name, 'r%d'>, <city, 'rc'>)"
    (10_000 + i) i

let count_replicated sys i =
  match Mlds.System.open_handle sys Mlds.System.L_abdl ~db:"university" with
  | Error _ -> false
  | Ok h ->
    let seen =
      match
        Mlds.System.submit_handle h
          (Printf.sprintf
             "RETRIEVE ((FILE = 'person') AND (person = %d)) (name)"
             (10_000 + i))
      with
      | Ok out -> contains out (Printf.sprintf "r%d" i)
      | Error _ -> false
    in
    Mlds.System.close_handle h;
    seen

let dump sys =
  match Mlds.Persist.dump sys ~db:"university" with
  | Ok text -> text
  | Error e -> Alcotest.failf "dump: %s" e

(* --- streaming, stale reads, Read_only, lag ------------------------------- *)

let test_stream_stale_reads_and_read_only () =
  with_primary (fun _t _server pport _wal ship ->
      with_standby_server pport (fun t2 _server2 sport _st ->
          wait_for "standby bootstrap"
            (fun () -> Replica.Ship.standbys ship = 1);
          let c = logged_in pport in
          for i = 1 to 20 do
            ignore (csubmit c (insert_stmt i))
          done;
          (* the stale read converges: every acked write becomes visible *)
          wait_for "write replicated" (fun () -> count_replicated t2 20);
          wait_for "lag drains to zero"
            (fun () -> Replica.Ship.lag_bytes ship = 0);
          (* read-only standby: reads flow, writes are refused with the
             typed error, transactions and checkpoints too *)
          let sc = logged_in sport in
          Alcotest.(check bool) "standby serves reads" true
            (contains
               (csubmit sc
                  "RETRIEVE ((FILE = 'person') AND (person = 10020)) (name)")
               "r20");
          (match Client.submit sc (insert_stmt 999) with
          | Error (`Refused (Wire.Read_only, _)) -> ()
          | _ -> Alcotest.fail "standby write not refused with Read_only");
          (match Client.begin_txn sc with
          | Error (`Refused (Wire.Read_only, _)) -> ()
          | _ -> Alcotest.fail "standby BEGIN not refused with Read_only");
          (match Client.checkpoint sc with
          | Error (`Refused (Wire.Read_only, _)) -> ()
          | _ -> Alcotest.fail "standby checkpoint not refused with Read_only");
          (* lag is wired into Stats (the telemetry surface mlds_top reads) *)
          (match Client.stats c with
          | Ok out ->
            Alcotest.(check bool) "repl.lag_bytes in primary Stats" true
              (contains out "repl.lag_bytes");
            Alcotest.(check bool) "repl.standbys in primary Stats" true
              (contains out "repl.standbys")
          | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e));
          Client.close sc;
          Client.close c))

(* --- promote over the wire ------------------------------------------------ *)

let test_promote_over_wire () =
  with_primary (fun _t _server pport _wal ship ->
      with_standby_server pport (fun t2 server2 sport st ->
          let c = logged_in pport in
          for i = 1 to 8 do
            ignore (csubmit c (insert_stmt i))
          done;
          wait_for "replicated" (fun () -> count_replicated t2 8);
          wait_for "drained" (fun () -> Replica.Ship.lag_bytes ship = 0);
          (* \promote: the reply is a summary, the refusal lifts, the
             write lands *)
          let sc = logged_in sport in
          (match Client.promote sc with
          | Ok out ->
            Alcotest.(check bool) "promotion summary" true
              (contains out "promoted")
          | Error e -> Alcotest.failf "promote: %s" (Client.error_to_string e));
          Alcotest.(check bool) "read_only lifted" false
            (Server.Core.read_only server2);
          Alcotest.(check bool) "post-promote write accepted" true
            (contains (csubmit sc (insert_stmt 77)) "INSERTED");
          (* promoting twice is a typed failure, not a crash *)
          (match Client.promote sc with
          | Error (`Refused (Wire.Exec_error, _)) -> ()
          | Ok _ -> Alcotest.fail "second promote succeeded"
          | Error e ->
            Alcotest.failf "second promote: %s" (Client.error_to_string e));
          ignore st;
          Client.close sc;
          Client.close c);
      (* a primary is not promotable *)
      let c = logged_in pport in
      (match Client.promote c with
      | Error (`Refused (Wire.Bad_request, _)) -> ()
      | _ -> Alcotest.fail "promote on a primary not Bad_request");
      Client.close c)

(* --- a short write to the standby's log ----------------------------------- *)

(* The file system accepts only 5 bytes of the first chunk written to
   the standby's log. The standby finishes the write and goes on: the
   log ends up complete, with the rest of the chunk written right after
   the short piece. *)
let test_standby_short_write () =
  with_primary (fun _t _server pport _wal _ship ->
      let fake = Fake_fs.create () in
      let swal = fresh_path "short" in
      Fake_fs.arm fake ~kind:Fake_fs.Write ~path:(String.equal swal) 1
        (Fake_fs.Short 5);
      let t2, st, _ = bare_standby ~fs:(Fake_fs.fs fake) ~wal_path:swal pport in
      wait_for "standby bootstrap" (fun () -> Replica.Standby.bootstrapped st);
      let c = logged_in pport in
      for i = 1 to 6 do
        ignore (csubmit c (insert_stmt i))
      done;
      wait_for "replicated" (fun () -> count_replicated t2 6);
      Replica.Standby.shutdown st;
      Client.close c;
      let rec after_short = function
        | Fake_fs.Op (Fake_fs.Write (ino, off, piece))
          :: Fake_fs.Op (Fake_fs.Write (ino', off', _)) :: _
          when String.length piece = 5 ->
          ino = ino' && off' = off + 5
        | _ :: rest -> after_short rest
        | [] -> false
      in
      Alcotest.(check bool) "the short write was finished in place" true
        (after_short (Fake_fs.trace fake));
      let r = Mlds.Wal.recover swal in
      let inserts =
        List.length
          (List.filter
             (function Mlds.Wal.Keyed_insert _ -> true | _ -> false)
             r.Mlds.Wal.entries)
      in
      Alcotest.(check bool) "log not torn" false r.Mlds.Wal.torn;
      Alcotest.(check int) "every insert in the log" 6 inserts;
      cleanup swal)

(* The first chunk lands 5 bytes in the standby's log before its write
   fails, and the cut back to the log's old length fails too. The
   standby abandons that log instead of appending behind the garbage: it
   bootstraps again, converges, and its log recovers whole. *)
let test_standby_failed_cut_rebootstraps () =
  with_primary (fun _t _server pport _wal _ship ->
      let fake = Fake_fs.create () in
      let swal = fresh_path "cut" in
      let on_log = String.equal swal in
      Fake_fs.arm fake ~kind:Fake_fs.Write ~path:on_log 1 (Fake_fs.Short 5);
      Fake_fs.arm fake ~kind:Fake_fs.Write ~path:on_log 2 Fake_fs.Eio;
      (* the log's first ftruncate is the bootstrap's, the second the cut *)
      Fake_fs.arm fake ~kind:Fake_fs.Ftruncate ~path:on_log 2 Fake_fs.Eio;
      let boots0 =
        Obs.Metrics.counter_value
          (Obs.Metrics.counter "repl.standby_bootstraps")
      in
      let t2, st, _ = bare_standby ~fs:(Fake_fs.fs fake) ~wal_path:swal pport in
      wait_for "standby bootstrap" (fun () -> Replica.Standby.bootstrapped st);
      let c = logged_in pport in
      for i = 1 to 6 do
        ignore (csubmit c (insert_stmt i))
      done;
      wait_for "replicated" (fun () -> count_replicated t2 6);
      Replica.Standby.shutdown st;
      Client.close c;
      Alcotest.(check bool) "the failed cut forced a second bootstrap" true
        (Obs.Metrics.counter_value
           (Obs.Metrics.counter "repl.standby_bootstraps")
        >= boots0 + 2);
      let r = Mlds.Wal.recover swal in
      Alcotest.(check bool) "log not torn" false r.Mlds.Wal.torn;
      Alcotest.(check int) "no garbage in the log" (Unix.stat swal).Unix.st_size
        r.Mlds.Wal.valid_bytes;
      cleanup swal)

(* --- checkpoint truncation: remap when possible, bootstrap when not ------- *)

let boots () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "repl.snapshot_bootstraps")

let test_truncation_remap_and_bootstrap () =
  with_primary (fun _t _server pport _wal ship ->
      (* phase 1: a caught-up standby survives a checkpoint truncation by
         coordinate remap — no snapshot bootstrap *)
      let t2, st, swal = bare_standby pport in
      let c = logged_in pport in
      for i = 1 to 6 do
        ignore (csubmit c (insert_stmt i))
      done;
      wait_for "phase-1 replicated" (fun () -> count_replicated t2 6);
      wait_for "phase-1 drained" (fun () -> Replica.Ship.lag_bytes ship = 0);
      let boots_before = boots () in
      (match Client.checkpoint c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checkpoint: %s" (Client.error_to_string e));
      for i = 7 to 12 do
        ignore (csubmit c (insert_stmt i))
      done;
      wait_for "replication survives the truncation"
        (fun () -> count_replicated t2 12);
      Alcotest.(check int) "remap, not re-bootstrap" boots_before (boots ());
      (* phase 2: a standby that slept through the truncation cannot be
         remapped (its position predates keep_from) — it must be offered
         a fresh snapshot, and still converge *)
      Replica.Standby.shutdown st;
      wait_for "standby detached" (fun () -> Replica.Ship.standbys ship = 0);
      for i = 13 to 18 do
        ignore (csubmit c (insert_stmt i))
      done;
      (match Client.checkpoint c with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "checkpoint 2: %s" (Client.error_to_string e));
      for i = 19 to 22 do
        ignore (csubmit c (insert_stmt i))
      done;
      (* restart from the on-disk state (origin/boot/log) it kept *)
      let t3, st3, _ = bare_standby ~wal_path:swal pport in
      wait_for "re-bootstrap converges" (fun () -> count_replicated t3 22);
      Alcotest.(check bool) "snapshot bootstrap happened" true
        (boots () > boots_before);
      Alcotest.(check bool) "pre-truncation rows present after bootstrap" true
        (count_replicated t3 1);
      Replica.Standby.shutdown st3;
      cleanup swal;
      Client.close c)

(* --- the failover property ------------------------------------------------ *)

(* One workload op: a batch of inserts, plain or inside a committed or
   aborted transaction. *)
type op = O_plain of int list | O_commit of int list | O_abort of int list

let gen_workload =
  let open QCheck2.Gen in
  let batch lo hi = list_size (int_range 1 3) (int_range lo hi) in
  (* ids collide freely: replay must agree on duplicates too *)
  list_size (int_range 1 8)
    (oneof
       [
         map (fun ids -> O_plain ids) (batch 0 99);
         map (fun ids -> O_commit ids) (batch 100 199);
         map (fun ids -> O_abort ids) (batch 200 299);
       ])

let run_op c op =
  let run ids = List.iter (fun i -> ignore (csubmit c (insert_stmt i))) ids in
  match op with
  | O_plain ids -> run ids
  | O_commit ids ->
    (match Client.begin_txn c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "begin: %s" (Client.error_to_string e));
    run ids;
    (match Client.commit_txn c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "commit: %s" (Client.error_to_string e))
  | O_abort ids ->
    (match Client.begin_txn c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "begin: %s" (Client.error_to_string e));
    run ids;
    (match Client.abort_txn c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "abort: %s" (Client.error_to_string e))

(* The drill: run [ops] against a live primary with a streaming standby,
   cut the stream after [kill_after] ops have been issued (the "kill
   point" — anything not yet acked is legitimately lost), promote, and
   check the promoted state equals a fresh-system replay of exactly the
   primary-WAL prefix the standby had made durable. With [kill_after >=
   length ops] the stream is drained first, so the promoted state must
   equal the primary byte for byte — zero acked writes lost. *)
let failover_drill ops kill_after =
  with_primary (fun _t _server pport pwal ship ->
      let t2, st, swal = bare_standby pport in
      Fun.protect
        ~finally:(fun () -> cleanup swal)
        (fun () ->
          wait_for "bootstrap" (fun () -> Replica.Ship.standbys ship = 1);
          let c = logged_in pport in
          let drained = kill_after >= List.length ops in
          List.iteri
            (fun i op ->
              if i = kill_after then Replica.Ship.shutdown ship;
              run_op c op)
            ops;
          if drained then
            wait_for "stream drained"
              (fun () -> Replica.Ship.lag_bytes ship = 0);
          Replica.Ship.shutdown ship;
          wait_for "stream cut" (fun () -> Replica.Ship.standbys ship = 0);
          let summary =
            match Replica.Standby.promote st with
            | Ok s -> s
            | Error e -> Alcotest.failf "promote: %s" e
          in
          Alcotest.(check bool) "promote summary" true
            (contains summary "promoted");
          (* the standby's durable prefix, in primary-WAL coordinates *)
          let cut = Replica.Standby.resume_pos st in
          let reference = university () in
          let prefix = Filename.temp_file "mldsref" ".wal" in
          let log = In_channel.with_open_bin pwal In_channel.input_all in
          if String.length log < cut then
            Alcotest.failf "primary WAL shorter than acked cut %d" cut;
          Out_channel.with_open_bin prefix (fun oc ->
              output_string oc (String.sub log 0 cut));
          (match
             Mlds.Persist.replay_wal reference ~db:"university" ~file:prefix
           with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "reference replay: %s" e);
          Sys.remove prefix;
          let equal = dump t2 = dump reference in
          if not equal then
            Alcotest.failf
              "promoted standby diverged from the acked prefix (cut=%d)" cut;
          (* post-promote writes land on the attached log *)
          Alcotest.(check bool) "promoted standby accepts writes" true
            (match Mlds.System.wal_of t2 ~db:"university" with
            | Some _ -> true
            | None -> false);
          Client.close c;
          true))

let prop_failover =
  QCheck2.Test.make ~name:"failover: promoted standby == acked prefix"
    ~count:6
    QCheck2.Gen.(pair gen_workload (int_range 0 8))
    (fun (ops, kill_after) -> failover_drill ops kill_after)

let test_failover_drained () =
  (* the deterministic corner: fully drained before the kill — nothing
     acked may be lost, including an aborted-txn's no-op and a committed
     batch *)
  Alcotest.(check bool) "drained failover loses nothing" true
    (failover_drill
       [ O_plain [ 1; 2 ]; O_commit [ 101; 102; 103 ]; O_abort [ 201 ];
         O_plain [ 3 ] ]
       99)

let test_failover_immediate_kill () =
  (* kill before any op: the promoted standby is exactly the bootstrap *)
  Alcotest.(check bool) "kill-at-zero failover" true
    (failover_drill [ O_plain [ 1 ]; O_commit [ 101 ] ] 0)

(* --- the stream on the primary's I/O loop --------------------------------- *)

let connect_raw ?rcvbuf port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Option.iter (Unix.setsockopt_int fd Unix.SO_RCVBUF) rcvbuf;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* A subscriber with no thread and no log: a socket that introduced
   itself with [Repl_hello] at the primary's current durable position,
   so nothing is bootstrapped. *)
let fake_subscriber ?rcvbuf t port =
  let wal = Option.get (Mlds.System.wal_of t ~db:"university") in
  let pos = Mlds.Wal.synced_position wal in
  let fd = connect_raw ?rcvbuf port in
  Test_server.raw_send fd ~request_id:0 ~session_id:0
    (Wire.Repl_hello { pos; boot = false });
  (fd, pos)

(* The next message down the stream, or [None] after [within] seconds. *)
let recv_down fd ~within =
  match Unix.select [ fd ] [] [] within with
  | [], _, _ -> None
  | _ ->
    (match Wire.read_frame fd with
    | Ok (Some payload) ->
      (match Replica.Protocol.decode_down payload with
      | Ok msg -> Some msg
      | Error e -> Alcotest.failf "undecodable stream message: %s" e)
    | Ok None | Error _ -> Alcotest.fail "the primary closed the stream")

(* Frame bytes received until the stream goes quiet for [quiet] s. *)
let drain_frames fd ~quiet =
  let rec go total =
    match recv_down fd ~within:quiet with
    | Some (Replica.Protocol.Frames { data; _ }) -> go (total + String.length data)
    | Some _ -> go total
    | None -> total
  in
  go 0

(* ~20 KB of WAL a statement *)
let fat_insert i =
  Printf.sprintf
    "INSERT (<FILE, 'person'>, <person, %d>, <name, '%s'>, <city, 'rc'>)"
    (20_000 + i) (String.make 20_000 'w')

(* A subscriber that does not ack is sent at most [window_max] bytes;
   each ack opens the window again by what it confirms. *)
let test_stream_window () =
  with_primary (fun t _server port _wal ship ->
      let fd, pos = fake_subscriber t port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          wait_for "subscriber attached" (fun () -> Replica.Ship.standbys ship = 1);
          let c = logged_in port in
          (* 1.5 MB of WAL *)
          for i = 1 to 75 do
            ignore (csubmit c (fat_insert i))
          done;
          Client.close c;
          let first = drain_frames fd ~quiet:0.5 in
          Alcotest.(check bool)
            (Printf.sprintf "%d unacked bytes within the %d-byte window" first
               Replica.Ship.window_max)
            true
            (first <= Replica.Ship.window_max
            && first > Replica.Ship.window_max - Replica.Ship.chunk_max);
          Wire.write_frame fd
            (Replica.Protocol.encode_up
               (Replica.Protocol.Ack { pos = pos + first; ts = 0. }));
          let rest = drain_frames fd ~quiet:0.5 in
          Alcotest.(check bool) "the ack opened the window" true (rest > 0);
          Alcotest.(check bool) "still within the window" true
            (rest <= Replica.Ship.window_max)))

(* An idle primary sends an acked-up subscriber a heartbeat about every
   second. *)
let test_stream_heartbeats () =
  with_primary (fun t _server port _wal ship ->
      let fd, _ = fake_subscriber t port in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          wait_for "subscriber attached" (fun () -> Replica.Ship.standbys ship = 1);
          let rec beats acc n =
            if n = 0 then List.rev acc
            else
              match recv_down fd ~within:3. with
              | Some (Replica.Protocol.Heartbeat _) ->
                beats (Unix.gettimeofday () :: acc) (n - 1)
              | Some _ -> Alcotest.fail "an idle primary sent more than heartbeats"
              | None -> Alcotest.fail "no heartbeat within 3 s"
          in
          match beats [] 4 with
          | first :: rest ->
            ignore
              (List.fold_left
                 (fun prev at ->
                   let gap = at -. prev in
                   if gap < 0.8 || gap > 1.6 then
                     Alcotest.failf "heartbeats %.3f s apart" gap;
                   at)
                 first rest)
          | [] -> assert false))

(* A subscriber whose receive buffer stays full is dropped once its
   unsent bytes have not moved for [send_timeout_s]. This one acks each
   write as it commits but never reads, so the window stays open and
   6 MB go out: more than the kernel's socket buffers hold. *)
let test_stream_stalled_dropped () =
  let send_timeout_s = 1. in
  with_primary ~config:{ Server.Core.default_config with send_timeout_s }
    (fun t _server port _wal ship ->
      let fd, _ = fake_subscriber ~rcvbuf:4096 t port in
      let wal = Option.get (Mlds.System.wal_of t ~db:"university") in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          wait_for "subscriber attached" (fun () -> Replica.Ship.standbys ship = 1);
          let c = logged_in port in
          let started = Unix.gettimeofday () in
          let acking = ref true in
          for i = 1 to 300 do
            ignore (csubmit c (fat_insert i));
            if !acking then
              try
                Wire.write_frame fd
                  (Replica.Protocol.encode_up
                     (Replica.Protocol.Ack
                        { pos = Mlds.Wal.synced_position wal; ts = 0. }))
              with Unix.Unix_error _ -> acking := false
          done;
          wait_for ~tries:(int_of_float (300. *. send_timeout_s))
            "stalled subscriber dropped"
            (fun () -> Replica.Ship.standbys ship = 0);
          let after = Unix.gettimeofday () -. started in
          Alcotest.(check bool)
            (Printf.sprintf "dropped %.2f s after the writes began, not before %.0f s"
               after send_timeout_s)
            true (after >= send_timeout_s);
          (* the primary goes on serving *)
          ignore (csubmit c (insert_stmt 1));
          Client.close c))

(* The primary's threads do not depend on how many standbys it ships to. *)
let test_threads_flat_with_standbys () =
  if not (Sys.file_exists "/proc/self/status") then Alcotest.skip ();
  with_primary (fun t _server port _wal ship ->
      let none = Test_server.threads_now () in
      let subs = List.init 3 (fun _ -> fake_subscriber t port) in
      Fun.protect
        ~finally:(fun () -> List.iter (fun (fd, _) -> Unix.close fd) subs)
        (fun () ->
          wait_for "3 subscribers attached" (fun () -> Replica.Ship.standbys ship = 3);
          Alcotest.(check int) "threads with 3 standbys = with 0" none
            (Test_server.threads_now ())))

(* [Promote] does not hold the standby's I/O loop: with the executor
   parked, the promotion cannot finish, yet another connection's Ping is
   answered; released, the promoter gets its reply. *)
let test_promote_leaves_loop_free () =
  let park = Atomic.make false and parked = Atomic.make false in
  let hook () =
    while Atomic.get park do
      Atomic.set parked true;
      Thread.delay 0.005
    done
  in
  let config = { Server.Core.default_config with executor_hook = Some hook } in
  with_primary (fun _t _server pport _wal ship ->
      with_standby_server ~config pport (fun _t2 server2 sport _st ->
          let a = connect_raw sport and b = connect_raw sport in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set park false;
              Unix.close a;
              Unix.close b)
            (fun () ->
              wait_for "standby attached" (fun () -> Replica.Ship.standbys ship = 1);
              Atomic.set park true;
              Server.Core.inject server2 ignore;
              wait_for "executor parked" (fun () -> Atomic.get parked);
              Test_server.raw_send a ~request_id:1 ~session_id:0 Wire.Promote;
              Unix.setsockopt_float b Unix.SO_RCVTIMEO 3.;
              Test_server.raw_send b ~request_id:2 ~session_id:0 Wire.Ping;
              (match Wire.read_frame b with
              | Ok (Some payload) ->
                Alcotest.(check bool) "Ping answered while the executor is parked"
                  true
                  (match Wire.decode_response payload with
                  | Ok { Wire.msg = Wire.Pong; _ } -> true
                  | _ -> false)
              | Ok None | Error _ | (exception Unix.Unix_error _) ->
                Alcotest.fail "no Pong while the promotion waits for the executor");
              Atomic.set park false;
              match (Test_server.raw_recv a).Wire.msg with
              | Wire.Output out ->
                Alcotest.(check bool) "promoted" true (contains out "promoted:")
              | _ -> Alcotest.fail "Promote not answered with a summary")))

(* --- a frame longer than a chunk --------------------------------------------- *)

(* One insert whose WAL frame (~300 KB) is longer than [chunk_max]: the
   chunk read takes the whole frame, and it ships without a snapshot
   bootstrap. *)
let test_long_frame_ships () =
  with_primary (fun _t _server pport _wal ship ->
      let t2, st, swal = bare_standby pport in
      Fun.protect
        ~finally:(fun () ->
          Replica.Standby.shutdown st;
          cleanup swal)
        (fun () ->
          wait_for "bootstrap" (fun () -> Replica.Ship.standbys ship = 1);
          wait_for "bootstrapped" (fun () -> Replica.Standby.bootstrapped st);
          let boots_before = boots () in
          let c = logged_in pport in
          let name = String.make 300_000 'w' in
          ignore
            (csubmit c
               (Printf.sprintf
                  "INSERT (<FILE, 'person'>, <person, 30001>, <name, '%s'>, \
                   <city, 'rc'>)"
                  name));
          ignore (csubmit c (insert_stmt 1));
          wait_for "the long frame and the next replicated"
            (fun () -> count_replicated t2 1);
          Alcotest.(check bool) "the long record is on the standby" true
            (match Mlds.System.open_handle t2 Mlds.System.L_abdl ~db:"university" with
            | Error _ -> false
            | Ok h ->
              let out =
                Mlds.System.submit_handle h
                  "RETRIEVE ((FILE = 'person') AND (person = 30001)) (name)"
              in
              Mlds.System.close_handle h;
              (match out with Ok out -> contains out name | Error _ -> false));
          Alcotest.(check int) "no snapshot bootstrap" boots_before (boots ());
          Client.close c))

(* --- promotion after the primary is gone ---------------------------------- *)

(* With the primary down for 1.5 s the stream thread sits in a
   reconnect wait; promotion ends that wait and answers at once. *)
let test_promote_ends_reconnect_wait () =
  with_primary (fun _t server pport _wal ship ->
      let _t2, st, swal = bare_standby pport in
      Fun.protect
        ~finally:(fun () ->
          Replica.Standby.shutdown st;
          cleanup swal)
        (fun () ->
          wait_for "bootstrapped" (fun () -> Replica.Standby.bootstrapped st);
          Replica.Ship.shutdown ship;
          Server.Core.shutdown server;
          Thread.delay 1.5;
          let answered = Atomic.make None in
          let t0 = Unix.gettimeofday () in
          Replica.Standby.promote_then st (fun r ->
              Atomic.set answered (Some (Unix.gettimeofday () -. t0, r)));
          wait_for "promotion answered" (fun () -> Atomic.get answered <> None);
          match Atomic.get answered with
          | Some (dt, Ok _) ->
            Alcotest.(check bool)
              (Printf.sprintf "promote answered in %.3f s (at most 0.3 s)" dt)
              true (dt <= 0.3)
          | Some (_, Error e) -> Alcotest.failf "promote: %s" e
          | None -> assert false))

(* A bootstrapped standby lags until it acks the installed snapshot:
   from its attach, while the executor has not yet cut the snapshot (it
   is parked), and while the snapshot is queued but unacked. Both ways to
   a bootstrap: a standby that asks for one, and one that claims bytes
   the log never held. Each fake subscriber then acks the snapshot's
   LSN, which drains the lag. *)
let test_boot_lags_until_acked () =
  let park = Atomic.make false and parked = Atomic.make false in
  let hook () =
    while Atomic.get park do
      Atomic.set parked true;
      Thread.delay 0.005
    done
  in
  let config = { Server.Core.default_config with executor_hook = Some hook } in
  with_primary ~config (fun t server port _wal ship ->
      let c = logged_in port in
      ignore (csubmit c (insert_stmt 1));
      Client.close c;
      let wal = Option.get (Mlds.System.wal_of t ~db:"university") in
      List.iter
        (fun (what, hello) ->
          let fd = connect_raw port in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set park false;
              Unix.close fd)
            (fun () ->
              Atomic.set parked false;
              Atomic.set park true;
              Server.Core.inject server ignore;
              wait_for "executor parked" (fun () -> Atomic.get parked);
              Test_server.raw_send fd ~request_id:0 ~session_id:0 hello;
              wait_for (what ^ ": attached") (fun () -> Replica.Ship.standbys ship = 1);
              Alcotest.(check bool) (what ^ ": lags before its snapshot is cut") true
                (Replica.Ship.lag_bytes ship > 0);
              Atomic.set park false;
              let rec snapshot_pos () =
                match recv_down fd ~within:5. with
                | Some (Replica.Protocol.Snapshot { pos; _ }) -> pos
                | Some _ -> snapshot_pos ()
                | None -> Alcotest.failf "%s: no bootstrap snapshot within 5 s" what
              in
              let pos = snapshot_pos () in
              Alcotest.(check bool) (what ^ ": lags while the snapshot is unacked") true
                (Replica.Ship.lag_bytes ship > 0);
              Thread.delay 0.1;
              Alcotest.(check bool) (what ^ ": still lags 0.1 s later") true
                (Replica.Ship.lag_bytes ship > 0);
              Wire.write_frame fd
                (Replica.Protocol.encode_up (Replica.Protocol.Ack { pos; ts = 0. }));
              wait_for (what ^ ": the snapshot's ack drains the lag") (fun () ->
                  Replica.Ship.lag_bytes ship = 0));
          wait_for "subscriber detached" (fun () -> Replica.Ship.standbys ship = 0))
        [ "asked", Wire.Repl_hello { pos = 0; boot = true };
          ( "claimed past the log",
            Wire.Repl_hello { pos = Mlds.Wal.position wal + 1_000_000; boot = false } ) ])

(* --- LSNs across checkpoints and standby restarts -------------------------- *)

(* One step of the interleaving: a batch of writes, an online checkpoint
   (of a drained log, which empties it, when nothing was written since
   the last one), or a standby restart. A checkpoint while the standby
   streams first waits for it to drain, so the only bootstraps due are
   the first one and those of a standby that restarts below the log's
   first LSN. *)
type step = S_write of int | S_checkpoint | S_restart of bool (* write while down *)

let gen_steps =
  let open QCheck2.Gen in
  list_size (int_range 1 8)
    (frequency
       [ 3, map (fun n -> S_write n) (int_range 1 4);
         2, pure S_checkpoint;
         2, map (fun w -> S_restart w) bool ])

let lsn_drill steps =
  with_primary (fun t _server pport pwal ship ->
      let c = logged_in pport in
      let next_id = ref 0 in
      let write n =
        for _ = 1 to n do
          incr next_id;
          ignore (csubmit c (insert_stmt !next_id))
        done
      in
      let checkpoint () =
        match Client.checkpoint c with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "checkpoint: %s" (Client.error_to_string e)
      in
      let drained () =
        wait_for "stream drained" (fun () ->
            Replica.Ship.standbys ship = 1 && Replica.Ship.lag_bytes ship = 0)
      in
      let boots0 = boots () in
      let t2, st, swal = bare_standby pport in
      let standby = ref (t2, st) in
      Fun.protect
        ~finally:(fun () ->
          Replica.Standby.shutdown (snd !standby);
          cleanup swal;
          Client.close c)
        (fun () ->
          wait_for "first bootstrap" (fun () -> Replica.Standby.bootstrapped st);
          let expected = ref (boots0 + 1) in
          List.iter
            (fun step ->
              match step with
              | S_write n -> write n
              | S_checkpoint ->
                drained ();
                checkpoint ()
              | S_restart write_while_down ->
                let _, st = !standby in
                drained ();
                Replica.Standby.shutdown st;
                wait_for "standby detached" (fun () -> Replica.Ship.standbys ship = 0);
                let resume = Replica.Standby.resume_pos st in
                if write_while_down then begin
                  write 2;
                  checkpoint ()
                end;
                if resume < (Mlds.Wal.recover pwal).Mlds.Wal.first_lsn then
                  incr expected;
                let t2, st, _ = bare_standby ~wal_path:swal pport in
                standby := (t2, st);
                wait_for "restarted standby streams" (fun () ->
                    Replica.Standby.bootstrapped st))
            steps;
          drained ();
          let t2, _ = !standby in
          if boots () <> !expected then
            Alcotest.failf "%d snapshot bootstraps, expected %d" (boots () - boots0)
              (!expected - boots0);
          if dump t2 <> dump t then Alcotest.fail "the drained standby differs";
          true))

let prop_lsn_drill =
  QCheck2.Test.make
    ~name:"LSNs: a standby bootstraps only below the log's first LSN" ~count:5
    gen_steps lsn_drill

(* The replication messages' codec: every message round-trips, and each
   damaged payload is refused with [Error] — every proper prefix,
   trailing bytes, an unknown tag, and an LSN at or past 2^62 (which no
   OCaml [int] holds). *)
let prop_protocol_codec =
  let module P = Replica.Protocol in
  let open QCheck2.Gen in
  let lsn = oneof [ int_range 0 100_000; int_range 0 max_int ] in
  let ts = float_range 0. 2e9 in
  let bytes = string_size (int_range 0 40) in
  let down =
    oneof
      [ map3 (fun pos ts text -> P.Snapshot { pos; ts; text }) lsn ts bytes;
        map3 (fun start_pos ts data -> P.Frames { start_pos; ts; data }) lsn ts bytes;
        map2 (fun pos ts -> P.Heartbeat { pos; ts }) lsn ts ]
  in
  let up = map2 (fun pos ts -> P.Ack { pos; ts }) lsn ts in
  QCheck2.Test.make ~name:"protocol: messages round-trip, damage is refused" ~count:300
    (pair down up)
    (fun (d, u) ->
      let refused decode payload = Result.is_error (decode payload) in
      let damaged decode payload ~other_tag =
        let set i c = String.mapi (fun j x -> if j = i then c else x) payload in
        List.for_all
          (fun n -> refused decode (String.sub payload 0 n))
          (List.init (String.length payload) Fun.id)
        && refused decode (payload ^ "\000")
        && refused decode (set 0 other_tag)
        && refused decode (set 1 (Char.chr (Char.code payload.[1] lor 0x40)))
      in
      let pd = P.encode_down d and pu = P.encode_up u in
      P.decode_down pd = Ok d
      && P.decode_up pu = Ok u
      && damaged P.decode_down pd ~other_tag:'A'
      && damaged P.decode_up pu ~other_tag:'S')

let suite =
  [
    "stream, stale reads, Read_only, lag in Stats", `Quick,
    test_stream_stale_reads_and_read_only;
    "promote over the wire", `Quick, test_promote_over_wire;
    "checkpoint truncation: remap, then bootstrap", `Quick,
    test_truncation_remap_and_bootstrap;
    "failover drill: drained", `Quick, test_failover_drained;
    "failover drill: immediate kill", `Quick, test_failover_immediate_kill;
    QCheck_alcotest.to_alcotest prop_failover;
    "standby finishes a short write to its log", `Quick,
    test_standby_short_write;
    "standby abandons a log it cannot cut back", `Quick,
    test_standby_failed_cut_rebootstraps;
    "stream: at most window_max unacked bytes", `Quick, test_stream_window;
    "stream: an idle primary sends heartbeats 1 s apart", `Quick,
    test_stream_heartbeats;
    "stream: a full receive buffer is dropped after send_timeout_s", `Quick,
    test_stream_stalled_dropped;
    "replication: threads do not grow with standbys", `Quick,
    test_threads_flat_with_standbys;
    "promote: the standby's loop answers while the executor finishes", `Quick,
    test_promote_leaves_loop_free;
    "stream: a frame longer than chunk_max ships without a bootstrap", `Quick,
    test_long_frame_ships;
    "promote: ends the reconnect wait of a standby whose primary is gone",
    `Quick, test_promote_ends_reconnect_wait;
    QCheck_alcotest.to_alcotest prop_lsn_drill;
    QCheck_alcotest.to_alcotest prop_protocol_codec;
    "bootstrap: a standby lags until it acks the snapshot", `Quick,
    test_boot_lags_until_acked;
  ]

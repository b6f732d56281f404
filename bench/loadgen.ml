(* Load generator for the MLDS server tier: N concurrent client domains ×
   M requests each, in a closed loop (next request leaves when the
   response arrives) or an open loop (--rate R: each client fires on a
   fixed schedule of R requests/second and the response time absorbs the
   lag — queueing shows up as latency, the textbook open-loop shape).

   Every latency is observed into the process-wide Obs registry
   (loadgen.latency_s, plus loadgen.<label>.latency_s per run), so the
   report and the JSON artifact are the same p50/p90/p99 machinery the
   rest of the repo uses. Overloaded responses (the server's typed
   admission-control rejection) are counted and retried after a short
   backoff; protocol errors are never retried — they fail the run, and
   --quick (the CI perf smoke) exits nonzero on any.

   The workload is a read/write mix controlled by --read-pct (default
   80): writes insert into a client-private kernel file (loadgen_c<i>),
   reads aggregate over the university employees — so the server
   multiplexes genuinely concurrent mutating sessions without the
   clients logically interfering.

   Two ways to point it at a server:
   - default: connect to --host/--port (an external mlds_server);
   - --batch on|off or --quick: self-host — start an in-process
     Server.Core (ephemeral port, university preload, fsync'd WAL on a
     temp file) with the batched or serial executor and aim at that.
     --quick runs the E14 matrix (serial vs batched × 1/4/8 clients at
     fixed total work) and writes BENCH_pr5.json. *)

let usage = "loadgen [--host H] [--port P] [--clients N] [--requests M]\n\
            \        [--rate R] [--read-pct PCT] [--batch on|off]\n\
            \        [--databases N] [--value-bytes N]\n\
            \        [--sweep N,N,...]\n\
            \        [--json FILE] [--quick] [--planner] [--telemetry]\n\
            \        [--soak] [--standby H:P] [--failover] [--sharded]"

type cfg = {
  mutable host : string;
  mutable port : int;
  mutable clients : int;
  mutable requests : int;  (* per client *)
  mutable rate : float;  (* open loop requests/s per client; 0 = closed *)
  mutable read_pct : int;  (* percentage of requests that are RETRIEVEs *)
  mutable read_pct_set : bool;  (* --read-pct was given explicitly *)
  mutable batch : bool option;  (* Some b = self-host with batch=b *)
  mutable sweep : int list;  (* concurrency sweep at fixed total requests *)
  mutable json : string option;
  mutable quick : bool;
  mutable planner : bool;  (* the E15 read-heavy indexed-vs-scan sweep *)
  mutable telemetry : bool;  (* the E16 recorder-overhead comparison *)
  mutable soak : bool;  (* the E17 online-checkpoint soak *)
  mutable standby : (string * int) option;
      (* route the RETRIEVEs of the mix to this warm standby *)
  mutable failover : bool;  (* the E18 kill-the-primary drill *)
  mutable databases : int;
      (* spread clients round-robin over this many databases (uni0,
         uni1, ...); 1 = everyone on 'university' *)
  mutable sharded : bool;  (* the E19 mixed-tenant comparison *)
  mutable value_bytes : int;
      (* payload size per INSERT; 0 = the legacy tiny 'p<i>' payload *)
}

let parse_args () =
  let cfg =
    {
      host = "127.0.0.1";
      port = 7207;
      clients = 4;
      requests = 50;
      rate = 0.;
      read_pct = 80;
      read_pct_set = false;
      batch = None;
      sweep = [];
      json = None;
      quick = false;
      planner = false;
      telemetry = false;
      soak = false;
      standby = None;
      failover = false;
      databases = 1;
      sharded = false;
      value_bytes = 0;
    }
  in
  let rec go = function
    | [] -> ()
    | "--host" :: v :: rest -> cfg.host <- v; go rest
    | "--port" :: v :: rest -> cfg.port <- int_of_string v; go rest
    | "--clients" :: v :: rest -> cfg.clients <- int_of_string v; go rest
    | "--requests" :: v :: rest -> cfg.requests <- int_of_string v; go rest
    | "--rate" :: v :: rest -> cfg.rate <- float_of_string v; go rest
    | "--read-pct" :: v :: rest ->
      let p = int_of_string v in
      if p < 0 || p > 100 then begin
        Printf.eprintf "--read-pct must be in 0..100\n";
        exit 2
      end;
      cfg.read_pct <- p;
      cfg.read_pct_set <- true;
      go rest
    | "--batch" :: v :: rest ->
      (match v with
      | "on" -> cfg.batch <- Some true
      | "off" -> cfg.batch <- Some false
      | _ ->
        Printf.eprintf "--batch takes on|off\n%s\n" usage;
        exit 2);
      go rest
    | "--json" :: v :: rest -> cfg.json <- Some v; go rest
    | "--sweep" :: v :: rest ->
      cfg.sweep <- List.map int_of_string (String.split_on_char ',' v);
      go rest
    | "--standby" :: v :: rest ->
      (match String.rindex_opt v ':' with
      | Some i ->
        (match
           int_of_string_opt (String.sub v (i + 1) (String.length v - i - 1))
         with
        | Some p -> cfg.standby <- Some (String.sub v 0 i, p)
        | None ->
          Printf.eprintf "--standby takes HOST:PORT\n";
          exit 2)
      | None ->
        Printf.eprintf "--standby takes HOST:PORT\n";
        exit 2);
      go rest
    | "--failover" :: rest -> cfg.failover <- true; go rest
    | "--databases" :: v :: rest ->
      let n = int_of_string v in
      if n < 1 then begin
        Printf.eprintf "--databases must be >= 1\n";
        exit 2
      end;
      cfg.databases <- n;
      go rest
    | "--sharded" :: rest -> cfg.sharded <- true; go rest
    | "--value-bytes" :: v :: rest ->
      let n = int_of_string v in
      if n < 0 then begin
        Printf.eprintf "--value-bytes must be >= 0\n";
        exit 2
      end;
      cfg.value_bytes <- n;
      go rest
    | "--quick" :: rest -> cfg.quick <- true; go rest
    | "--planner" :: rest -> cfg.planner <- true; go rest
    | "--telemetry" :: rest -> cfg.telemetry <- true; go rest
    | "--soak" :: rest -> cfg.soak <- true; go rest
    | ("--help" | "-h") :: _ -> print_endline usage; exit 0
    | arg :: _ -> Printf.eprintf "unknown argument %s\n%s\n" arg usage; exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  if cfg.quick && cfg.json = None then cfg.json <- Some "BENCH_pr5.json";
  if cfg.planner && cfg.json = None then cfg.json <- Some "BENCH_pr6.json";
  if cfg.telemetry && cfg.json = None then cfg.json <- Some "BENCH_pr7.json";
  if cfg.soak && cfg.json = None then cfg.json <- Some "BENCH_pr8.json";
  if cfg.failover && cfg.json = None then cfg.json <- Some "BENCH_pr9.json";
  if cfg.sharded && cfg.json = None then cfg.json <- Some "BENCH_pr10.json";
  cfg

(* --- the self-hosted server ----------------------------------------------- *)

(* Which database client [i] logs into: round-robin over the [uni<k>]
   family when the run spreads over several databases, the classic
   'university' otherwise. *)
let db_for_client ~databases client =
  if databases <= 1 then "university"
  else Printf.sprintf "uni%d" (client mod databases)

(* A fresh system per server so serial and batched runs start from the
   same state: university preloaded, a real fsync'd WAL on a temp file —
   the durability cost group commit is meant to amortise. With
   [databases = N > 1] the preload is the [uni0..uniN-1] family instead
   (same DDL and rows each), each with its own WAL and so its own
   flusher. *)
let start_server ?grid ?recorder_capacity ?slow_threshold_s
    ?(checkpoint_every_bytes = 0) ?(checkpoint_every_s = 0.)
    ?(shed_p99_target_s = 0.) ?(databases = 1) ~batch () =
  let sys = Mlds.System.create () in
  let dbs =
    if databases <= 1 then [ "university" ]
    else List.init databases (fun i -> Printf.sprintf "uni%d" i)
  in
  List.iter
    (fun name ->
      match
        Mlds.System.define_functional sys ~name ~ddl:Daplex.University.ddl
          Daplex.University.rows
      with
      | Ok () -> ()
      | Error msg -> failwith ("loadgen: preload failed: " ^ msg))
    dbs;
  (* the planner sweep's haystack: a dense integer-keyed file, inserted
     before the WAL attaches so preload never hits the log *)
  (match grid with
  | None -> ()
  | Some rows ->
    (match Mlds.System.kernel_of sys "university" with
    | None -> failwith "loadgen: no kernel for grid preload"
    | Some kernel ->
      for i = 0 to rows - 1 do
        ignore
          (Mapping.Kernel.insert kernel
             (Abdm.Record.make
                [ Abdm.Keyword.file "grid";
                  Abdm.Keyword.make "k" (Abdm.Value.Int i) ]))
      done));
  let wal_files =
    List.map
      (fun db ->
        let wal_file = Filename.temp_file "loadgen" ".wal" in
        (match Mlds.System.attach_wal sys ~db ~file:wal_file with
        | Ok _ -> ()
        | Error msg -> failwith ("loadgen: cannot attach WAL: " ^ msg));
        wal_file)
      dbs
  in
  let base = Server.Core.default_config in
  let config =
    {
      base with
      port = 0;
      batch;
      recorder_capacity =
        Option.value ~default:base.Server.Core.recorder_capacity
          recorder_capacity;
      slow_threshold_s =
        Option.value ~default:base.Server.Core.slow_threshold_s
          slow_threshold_s;
      checkpoint_every_bytes;
      checkpoint_every_s;
      shed_p99_target_s;
    }
  in
  match Server.Core.create ~config sys with
  | Error msg -> failwith ("loadgen: cannot self-host: " ^ msg)
  | Ok server -> server, wal_files

let stop_server (server, wal_files) =
  Server.Core.shutdown server;
  List.iter
    (fun wal_file -> try Sys.remove wal_file with Sys_error _ -> ())
    wal_files

(* --- one client domain --------------------------------------------------- *)

type client_report = {
  ok : int;
  overloaded : int;  (* typed rejections observed (each retried) *)
  errors : string list;  (* protocol/refusal failures: fail the run *)
  elapsed_s : float;  (* the timed window only: post-barrier, post-warmup *)
}

(* Spread the writes evenly through the sequence: request [i] is a write
   exactly when the running write quota crosses an integer there, so
   read_pct 80 gives the i mod 5 = 4 pattern, read_pct 100 never writes. *)
let request_text ~read_pct ?(value_bytes = 0) ~client ~i () =
  let wp = 100 - read_pct in
  let is_write = wp > 0 && (i + 1) * wp / 100 > i * wp / 100 in
  if is_write then
    if value_bytes > 0 then
      (* document-style record: a [value_bytes]-sized opaque payload, so
         the WAL flush — not the executor — dominates the request *)
      Printf.sprintf "INSERT (<FILE, loadgen_c%d>, <seq, %d>, <payload, '%s'>)"
        client i
        (String.make value_bytes (Char.chr (Char.code 'a' + (i mod 26))))
    else
      Printf.sprintf
        "INSERT (<FILE, loadgen_c%d>, <seq, %d>, <payload, 'p%d'>)" client i i
  else "RETRIEVE ((FILE = employee)) (AVG(salary))"

(* [barrier] synchronises the measurement window: each client connects,
   logs in and runs [warmup] unrecorded requests, then checks in and
   spins until everyone has — so connect/login/warmup cost never lands
   in the recorded latencies or the wall clock. *)
let run_client ~cfg ~gen ~label ~client ~requests ~warmup ~barrier ~parties () =
  let hist = Obs.Metrics.histogram "loadgen.latency_s" in
  let hist_l =
    Obs.Metrics.histogram (Printf.sprintf "loadgen.%s.latency_s" label)
  in
  let fail msg = { ok = 0; overloaded = 0; errors = [ msg ]; elapsed_s = 0. } in
  match Client.connect ~host:cfg.host ~port:cfg.port () with
  | Error msg ->
    Atomic.incr barrier;  (* never leave the others spinning *)
    fail msg
  | Ok c ->
    let db = db_for_client ~databases:cfg.databases client in
    let report =
      match Client.login c ~user:(Printf.sprintf "load%d" client)
              ~language:"abdl" ~db ()
      with
      | Error e ->
        Atomic.incr barrier;
        fail (Client.error_to_string e)
      | Ok _ -> (
        (* --standby H:P — stale-read routing: RETRIEVEs go to the warm
           standby (which serves reads but refuses writes), everything
           else stays on the primary *)
        let read_conn =
          match cfg.standby with
          | None -> Ok None
          | Some (host, port) -> (
            match Client.connect ~host ~port () with
            | Error msg -> Error ("standby connect: " ^ msg)
            | Ok rc -> (
              match
                Client.login rc
                  ~user:(Printf.sprintf "load%d" client)
                  ~language:"abdl" ~db ()
              with
              | Ok _ -> Ok (Some rc)
              | Error e ->
                Client.close rc;
                Error ("standby login: " ^ Client.error_to_string e)))
        in
        match read_conn with
        | Error msg ->
          Atomic.incr barrier;
          fail msg
        | Ok read_c ->
        let is_read src =
          String.length src >= 8 && String.sub src 0 8 = "RETRIEVE"
        in
        let target src =
          match read_c with Some rc when is_read src -> rc | _ -> c
        in
        let ok = ref 0 and overloaded = ref 0 and errors = ref [] in
        let one ~record i =
          let src = gen ~client ~i in
          let rec attempt tries =
            let t0 = Obs.Clock.now_s () in
            match Client.submit (target src) src with
            | Ok _ ->
              if record then begin
                let dt = Obs.Clock.since t0 in
                Obs.Metrics.observe hist dt;
                Obs.Metrics.observe hist_l dt;
                incr ok
              end
            | Error `Overloaded ->
              if record then incr overloaded;
              if tries < 50 then begin
                (* backpressure honoured: back off and retry *)
                Unix.sleepf 0.002;
                attempt (tries + 1)
              end
              else errors := "gave up after 50 Overloaded retries" :: !errors
            | Error e -> errors := Client.error_to_string e :: !errors
          in
          attempt 0
        in
        for i = 0 to warmup - 1 do
          if !errors = [] then one ~record:false i
        done;
        Atomic.incr barrier;
        while Atomic.get barrier < parties do
          Thread.yield ()
        done;
        let t_start = Obs.Clock.now_s () in
        let interval = if cfg.rate > 0. then 1. /. cfg.rate else 0. in
        for i = 0 to requests - 1 do
          if !errors = [] then begin
            (* open loop: fire on schedule, lag becomes latency *)
            if interval > 0. then begin
              let due = t_start +. (float_of_int i *. interval) in
              let now = Obs.Clock.now_s () in
              if due > now then Unix.sleepf (due -. now)
            end;
            one ~record:true (warmup + i)
          end
        done;
        (match read_c with Some rc -> Client.close rc | None -> ());
        {
          ok = !ok;
          overloaded = !overloaded;
          errors = !errors;
          elapsed_s = Obs.Clock.since t_start;
        })
    in
    Client.close c;
    report

(* --- a measured run at one concurrency level ----------------------------- *)

type run_report = {
  label : string;
  clients : int;
  total_ok : int;
  total_overloaded : int;
  total_errors : string list;
  wall_s : float;
  stats : Obs.Metrics.histogram_stats;
}

let run_once ~cfg ?gen ~label ~clients ~requests_per_client () =
  let gen =
    match gen with
    | Some g -> g
    | None ->
      fun ~client ~i ->
        request_text ~read_pct:cfg.read_pct ~value_bytes:cfg.value_bytes
          ~client ~i ()
  in
  let warmup = max 4 (requests_per_client / 20) in
  let barrier = Atomic.make 0 in
  (* One domain per client wants one core per client. On a small box
     the domains cost more than they parallelise — every minor GC is a
     stop-the-world sync across all of them — so fall back to plain
     threads (blocking socket IO releases the runtime lock, which is
     all the concurrency a closed-loop client needs). *)
  let reports =
    if Domain.recommended_domain_count () > clients then
      let domains =
        List.init clients (fun client ->
            Domain.spawn
              (run_client ~cfg ~gen ~label ~client ~requests:requests_per_client
                 ~warmup ~barrier ~parties:clients))
      in
      List.map Domain.join domains
    else
      let results = Array.make clients None in
      let threads =
        List.init clients (fun client ->
            Thread.create
              (fun () ->
                results.(client) <-
                  Some
                    (run_client ~cfg ~gen ~label ~client
                       ~requests:requests_per_client ~warmup ~barrier
                       ~parties:clients ()))
              ())
      in
      List.iter Thread.join threads;
      List.init clients (fun client ->
          match results.(client) with
          | Some r -> r
          | None ->
            {
              ok = 0;
              overloaded = 0;
              errors = [ "client thread died" ];
              elapsed_s = 0.;
            })
  in
  (* closed loop from a common barrier: the cell's wall clock is the
     slowest client's timed window *)
  let wall_s = List.fold_left (fun m r -> Float.max m r.elapsed_s) 0. reports in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    label;
    clients;
    total_ok = sum (fun r -> r.ok);
    total_overloaded = sum (fun r -> r.overloaded);
    total_errors = List.concat_map (fun r -> r.errors) reports;
    wall_s;
    stats =
      Obs.Metrics.histogram_stats
        (Obs.Metrics.histogram (Printf.sprintf "loadgen.%s.latency_s" label));
  }

let throughput r = if r.wall_s > 0. then float_of_int r.total_ok /. r.wall_s else 0.

let print_report r =
  Printf.printf
    "%-10s %2d clients  %5d ok  %4d overloaded  %8.1f req/s  p50 %.1f us  \
     p90 %.1f us  p99 %.1f us\n%!"
    r.label r.clients r.total_ok r.total_overloaded (throughput r)
    (r.stats.Obs.Metrics.p50 *. 1e6)
    (r.stats.Obs.Metrics.p90 *. 1e6)
    (r.stats.Obs.Metrics.p99 *. 1e6);
  List.iter (fun e -> Printf.printf "  !! %s\n%!" e) r.total_errors

(* fail fast (and clearly) when no server is listening *)
let probe cfg =
  match Client.connect ~host:cfg.host ~port:cfg.port () with
  | Error msg ->
    Printf.eprintf "loadgen: %s\n" msg;
    exit 1
  | Ok c ->
    (match Client.ping c with
    | Ok () -> Client.close c
    | Error e ->
      Printf.eprintf "loadgen: ping failed: %s\n" (Client.error_to_string e);
      exit 1)

(* The E14 matrix: serial vs batched executor at 1/4/8 clients, fixed
   total work per cell, read-heavy mix — the experiment behind
   BENCH_pr5.json. Each mode gets a fresh self-hosted server (own system,
   own WAL) so the two start from identical state. *)
let quick_total = 3200

let run_matrix cfg =
  List.concat_map
    (fun batch ->
      let mode = if batch then "batch" else "serial" in
      let hosted = start_server ~batch () in
      let server, _ = hosted in
      cfg.host <- "127.0.0.1";
      cfg.port <- Server.Core.port server;
      let reports =
        List.map
          (fun clients ->
            let r =
              run_once ~cfg
                ~label:(Printf.sprintf "%s_c%d" mode clients)
                ~clients
                ~requests_per_client:(quick_total / clients) ()
            in
            print_report r;
            r)
          [ 1; 4; 8 ]
      in
      stop_server hosted;
      reports)
    [ false; true ]

(* The E15 planner sweep: one self-hosted batched server preloaded with a
   dense integer file ([grid], [grid_rows] records keyed by attribute k),
   then three read-only cells at 8 clients:
   - point:    (k = v) — after the auto-index threshold, one posting;
   - range:    (k >= lo AND k <= lo+49) — an ordered-index window, and
               when both ends are selective, a posting intersection;
   - fullscan: (k >= 0) — matches everything, so the cost model must
               flip back to the file scan rather than merge a posting as
               large as the file.
   Indexed-vs-scan throughput and every abdm.plan.* counter land in
   BENCH_pr6.json, since the server runs in this very process. *)
let grid_rows = 4000

let planner_total = 2400

let run_planner cfg =
  let hosted = start_server ~grid:grid_rows ~batch:true () in
  let server, _ = hosted in
  cfg.host <- "127.0.0.1";
  cfg.port <- Server.Core.port server;
  let cell label total gen =
    let clients = 8 in
    let r =
      run_once ~cfg ~gen ~label ~clients
        ~requests_per_client:(total / clients) ()
    in
    print_report r;
    r
  in
  let point =
    cell "planner_point_c8" planner_total (fun ~client ~i ->
        Printf.sprintf "RETRIEVE ((FILE = grid) AND (k = %d)) (k)"
          ((client * 997 + i * 131) mod grid_rows))
  in
  let range =
    cell "planner_range_c8" planner_total (fun ~client ~i ->
        let lo = (client * 409 + i * 53) mod (grid_rows - 50) in
        Printf.sprintf
          "RETRIEVE ((FILE = grid) AND (k >= %d) AND (k <= %d)) (COUNT(k))" lo
          (lo + 49))
  in
  (* a tenth of the work: each of these reads all grid_rows rows *)
  let fullscan =
    cell "planner_fullscan_c8" (planner_total / 10) (fun ~client:_ ~i:_ ->
        "RETRIEVE ((FILE = grid) AND (k >= 0)) (COUNT(k))")
  in
  stop_server hosted;
  [ point; range; fullscan ]

(* The E16 recorder-overhead comparison: the same read-heavy closed-loop
   cell at 8 clients against two self-hosted batched servers — one with
   the flight recorder disabled (recorder_capacity 0), one recording
   every request with the slow threshold pinned to the off-run's p99, so
   the slow path (statement + plan capture) genuinely fires on the tail.
   Both cells run a sampler thread polling Stats/Tail over the wire at
   20 Hz — exactly what mlds_top does — so the control-lane load is
   symmetric and the measured delta is the recorder itself. The
   acceptance bar (checked in CI from BENCH_pr7.json): recording costs
   under 3% throughput. *)
let telemetry_total = 3200

let run_telemetry cfg =
  let module J = Obs.Json in
  let cell ~label ~recorder_capacity ?slow_threshold_s () =
    let hosted =
      start_server ~batch:true ~recorder_capacity ?slow_threshold_s ()
    in
    let server, _ = hosted in
    cfg.host <- "127.0.0.1";
    cfg.port <- Server.Core.port server;
    let stop = Atomic.make false in
    let polls = ref 0 in
    let recorder_seen = ref (0., 0.) in
    let sampler =
      Thread.create
        (fun () ->
          match Client.connect ~host:cfg.host ~port:cfg.port () with
          | Error _ -> ()
          | Ok c ->
            let cursor = ref 0 and slow_cursor = ref 0 in
            let poll_once () =
              (match Client.stats c with
              | Ok out ->
                incr polls;
                (match J.parse out with
                | Ok json ->
                  (match J.member "recorder" json with
                  | Some r ->
                    recorder_seen :=
                      ( Option.value ~default:0. (J.num_member "next_seq" r),
                        Option.value ~default:0.
                          (J.num_member "slow_next_seq" r) )
                  | None -> ())
                | Error _ -> ())
              | Error _ -> ());
              match
                (* cap the drain: on a small machine an unbounded Tail
                   render/parse cycle is sampler cost, not recorder cost,
                   and it would bill the recorder-on cell for it *)
                Client.tail c ~max_events:64 ~cursor:!cursor
                  ~slow_cursor:!slow_cursor ()
              with
              | Error _ -> ()  (* recorder off: typed refusal, still load *)
              | Ok out ->
                (match J.parse out with
                | Error _ -> ()
                | Ok json ->
                  cursor :=
                    Option.value ~default:!cursor (J.int_member "cursor" json);
                  slow_cursor :=
                    Option.value ~default:!slow_cursor
                      (J.int_member "slow_cursor" json))
            in
            while not (Atomic.get stop) do
              poll_once ();
              Unix.sleepf 0.1
            done;
            poll_once ();  (* one final drain after the run settles *)
            Client.close c)
        ()
    in
    let r =
      run_once ~cfg ~label ~clients:8 ~requests_per_client:(telemetry_total / 8)
        ()
    in
    Atomic.set stop true;
    Thread.join sampler;
    print_report r;
    stop_server hosted;
    (r, !polls, !recorder_seen)
  in
  let off_cell () = cell ~label:"telem_off_c8" ~recorder_capacity:0 () in
  let off1, polls_off1, _ = off_cell () in
  (* Pin the slow threshold to the off-run's server-side p99 so about 1%
     of the recorder-on requests take the full capture path (statement +
     plan). The client-side p99 would not do: it includes queue wait,
     which the recorder's per-request latency deliberately excludes. The
     server runs in this process, so its histograms are readable here. *)
  let server_p99 =
    (Obs.Metrics.histogram_stats
       (Obs.Metrics.histogram "server.request.submit_s"))
      .Obs.Metrics.p99
  in
  let threshold = Float.max 1e-6 server_p99 in
  let on_cell () =
    cell ~label:"telem_on_c8" ~recorder_capacity:4096
      ~slow_threshold_s:threshold ()
  in
  let on1, polls_on1, seen1 = on_cell () in
  (* Each cell lasts well under a second, so a single off/on pair is at
     the mercy of whatever else the machine is doing. Alternate the two
     modes for [reps] rounds and compare best-of — the honest way to
     measure a small fixed overhead through scheduler noise. *)
  let reps = 3 in
  let best a b = if throughput b > throughput a then b else a in
  let rec go n acc =
    if n >= reps then acc
    else begin
      let off, on, polls_off, polls_on, (events, slow) = acc in
      let off_i, po, _ = off_cell () in
      let on_i, pn, (ev, sl) = on_cell () in
      go (n + 1)
        ( best off off_i,
          best on on_i,
          polls_off + po,
          polls_on + pn,
          (Float.max events ev, Float.max slow sl) )
    end
  in
  let off, on, polls_off, polls_on, (events, slow) =
    go 1 (off1, on1, polls_off1, polls_on1, seen1)
  in
  let g name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge ("loadgen.telemetry." ^ name)) v
  in
  let off_rps = throughput off and on_rps = throughput on in
  let overhead_pct =
    if off_rps > 0. then 100. *. (off_rps -. on_rps) /. off_rps else 0.
  in
  g "overhead_pct" overhead_pct;
  g "slow_threshold_s" threshold;
  g "stats_polls_off" (float_of_int polls_off);
  g "stats_polls_on" (float_of_int polls_on);
  g "events_recorded" events;
  g "slow_captured" slow;
  Printf.printf
    "recorder on/off throughput at 8 clients: %.2fx (overhead %.1f%%)\n%!"
    (if off_rps > 0. then on_rps /. off_rps else 0.)
    overhead_pct;
  Printf.printf
    "mid-run Stats polls answered: %d (recorder off), %d (recorder on); \
     recorder saw %.0f events, %.0f slow captures (threshold %.1f us)\n%!"
    polls_off polls_on events slow (threshold *. 1e6);
  if polls_on = 0 || polls_off = 0 then begin
    print_endline "loadgen FAILED: no mid-run Stats poll was answered";
    exit 1
  end;
  if events <= 0. then begin
    print_endline "loadgen FAILED: recorder-on run recorded no events";
    exit 1
  end;
  [ off; on ]

(* The E17 soak: a write-heavy closed loop against one self-hosted
   batched server with online checkpointing armed (size trigger well
   below the run's total WAL production), measured in consecutive phases
   so latency drift over the run's lifetime is visible. A sampler thread
   tracks the peak of the in-process wal.bytes gauge — the bound the
   checkpoints are supposed to enforce. Afterwards, two recovery
   measurements: replaying the soak server's own (truncated) log, and a
   synthetic million-frame log — the recovery time checkpointing buys
   its way out of. Everything lands in BENCH_pr8.json; CI guards
   checkpoints >= 3, the WAL bound, and p99 flatness. *)
let soak_phases = 6

let soak_every_bytes = 32 * 1024

let soak_million = 1_000_000

let recover_million () =
  let file = Filename.temp_file "loadgen_recover" ".wal" in
  let wal = Mlds.Wal.open_log ~fsync:false file in
  let keys = 1000 in
  let record k v =
    Abdm.Record.make
      [
        Abdm.Keyword.file "soak";
        Abdm.Keyword.make "k" (Abdm.Value.Int k);
        Abdm.Keyword.make "v" (Abdm.Value.Int v);
      ]
  in
  for k = 0 to keys - 1 do
    Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (k, record k 0))
  done;
  for i = keys to soak_million - 1 do
    let k = i mod keys in
    Mlds.Wal.append wal (Mlds.Wal.Replace (k, record k i))
  done;
  Mlds.Wal.sync wal;
  Mlds.Wal.close wal;
  let sys = Mlds.System.create () in
  (match Mlds.System.define_relational sys ~name:"recbench" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let t0 = Obs.Clock.now_s () in
  let report =
    match Mlds.Persist.replay_wal sys ~db:"recbench" ~file with
    | Ok r -> r
    | Error msg -> failwith ("recovery bench: " ^ msg)
  in
  let dt = Obs.Clock.since t0 in
  (try Sys.remove file with Sys_error _ -> ());
  (report.Mlds.Persist.frames, dt)

let run_soak cfg =
  cfg.read_pct <- 50;
  let hosted =
    start_server ~batch:true ~checkpoint_every_bytes:soak_every_bytes ()
  in
  let server, wal_files = hosted in
  let wal_file = List.hd wal_files in
  cfg.host <- "127.0.0.1";
  cfg.port <- Server.Core.port server;
  (* the server runs in this process, so the WAL gauge is readable here;
     sample it fast enough to catch the pre-truncation peaks *)
  let stop = Atomic.make false in
  let wal_peak = ref 0. in
  let g_wal = Obs.Metrics.gauge "wal.bytes" in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          wal_peak := Float.max !wal_peak (Obs.Metrics.gauge_value g_wal);
          Thread.delay 0.002
        done)
      ()
  in
  let phases =
    List.init soak_phases (fun p ->
        let r =
          run_once ~cfg
            ~label:(Printf.sprintf "soak_p%d" (p + 1))
            ~clients:4 ~requests_per_client:200 ()
        in
        print_report r;
        r)
  in
  Atomic.set stop true;
  Thread.join sampler;
  let checkpoints =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.checkpoint.total")
  in
  Server.Core.shutdown server;
  let wal_final = float_of_int (Unix.stat wal_file).Unix.st_size in
  (* recovery from the truncated log: the time a restart would pay *)
  let sys_r = Mlds.System.create () in
  (match Mlds.System.define_relational sys_r ~name:"university" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let t0 = Obs.Clock.now_s () in
  let final_report =
    match Mlds.Persist.replay_wal sys_r ~db:"university" ~file:wal_file with
    | Ok r -> r
    | Error msg -> failwith ("soak recovery: " ^ msg)
  in
  let recover_final_s = Obs.Clock.since t0 in
  (try Sys.remove wal_file with Sys_error _ -> ());
  let million_frames, recover_million_s = recover_million () in
  let p99 r = r.stats.Obs.Metrics.p99 in
  let first = List.hd phases and last = List.nth phases (soak_phases - 1) in
  let p99_ratio =
    if p99 first > 0. then p99 last /. p99 first else 0.
  in
  let g name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge ("loadgen.soak." ^ name)) v
  in
  g "checkpoints_total" (float_of_int checkpoints);
  g "every_bytes" (float_of_int soak_every_bytes);
  g "wal_peak_bytes" !wal_peak;
  g "wal_final_bytes" wal_final;
  g "wal_bound_ratio" (!wal_peak /. float_of_int soak_every_bytes);
  g "p99_first_s" (p99 first);
  g "p99_last_s" (p99 last);
  g "p99_ratio" p99_ratio;
  g "recover_final_s" recover_final_s;
  g "recover_final_frames" (float_of_int final_report.Mlds.Persist.frames);
  g "recover_1e6_s" recover_million_s;
  g "recover_1e6_frames" (float_of_int million_frames);
  Printf.printf
    "soak: %d online checkpoints, WAL peak %.0f bytes (%.1fx the %d-byte \
     trigger), final %.0f bytes\n%!"
    checkpoints !wal_peak
    (!wal_peak /. float_of_int soak_every_bytes)
    soak_every_bytes wal_final;
  Printf.printf "soak: p99 first phase %.1f us, last phase %.1f us (%.2fx)\n%!"
    (p99 first *. 1e6) (p99 last *. 1e6) p99_ratio;
  Printf.printf
    "soak: recovery replayed %d frames in %.3fs after checkpointing; a \
     %d-frame log replays in %.3fs\n%!"
    final_report.Mlds.Persist.frames recover_final_s million_frames
    recover_million_s;
  if checkpoints < 3 then begin
    Printf.printf "loadgen FAILED: only %d online checkpoints fired\n%!"
      checkpoints;
    exit 1
  end;
  if !wal_peak > 10. *. float_of_int soak_every_bytes then begin
    Printf.printf "loadgen FAILED: WAL peak %.0f not bounded by checkpoints\n%!"
      !wal_peak;
    exit 1
  end;
  phases

(* E19, the mixed-tenant comparison: a 2-database workload at 8
   clients against a self-hosted default server, plus a single-database
   1-client cell against the serial executor ([batch = false]) and the
   default one — the no-regression guard: with one client there is
   nothing to overlap, so pipelining the covering fsync must cost
   nothing. Tenant uni0 ingests 4 KiB documents (its group commits flush
   tens of kilobytes, so the covering fsync dominates its waves); tenant
   uni1 runs point reads. The executor hands each fsync to uni0's
   flusher thread and starts the next batch at once, so uni1's reads
   never wait behind uni0's fsync: overlap of a blocked syscall (the
   OCaml runtime lock is released inside it), not parallel compute.
   --value-bytes/--read-pct override the tenant mix to explore other
   regimes. *)
let sharded_total = 6400

let sharded_single_total = 400

let sharded_value_bytes = 4096

let run_sharded cfg =
  let databases = Stdlib.max 2 cfg.databases in
  (* pin the E19 mix unless the caller overrode it explicitly *)
  let saved_read_pct = cfg.read_pct and saved_value_bytes = cfg.value_bytes in
  if not cfg.read_pct_set then cfg.read_pct <- 0;
  if cfg.value_bytes = 0 then cfg.value_bytes <- sharded_value_bytes;
  let cell ?gen ~label ~batch ~databases ~clients ~total () =
    let hosted = start_server ~batch ~databases () in
    let server, _ = hosted in
    let saved = cfg.databases in
    cfg.databases <- databases;
    cfg.host <- "127.0.0.1";
    cfg.port <- Server.Core.port server;
    let r =
      run_once ~cfg ?gen ~label ~clients ~requests_per_client:(total / clients)
        ()
    in
    cfg.databases <- saved;
    print_report r;
    stop_server hosted;
    r
  in
  (* The 2-database mixed-tenant mix, aligned with the round-robin
     database assignment: even clients land on [uni0] and ingest 4 KiB
     documents (the fsync-heavy tenant), odd clients land on [uni1] and
     run read statements (the latency-sensitive tenant). *)
  let lane_gen ~client ~i =
    if client mod 2 = 0 then
      request_text ~read_pct:0 ~value_bytes:cfg.value_bytes ~client ~i ()
    else request_text ~read_pct:100 ~value_bytes:0 ~client ~i ()
  in
  let mixed =
    cell ~gen:lane_gen ~label:"mixed_c8" ~batch:true ~databases ~clients:8
      ~total:sharded_total ()
  in
  (* The no-regression guard cells write the small legacy payload: one
     client, one database — a pure measure of what the flusher hand-off
     adds to the durability path, without large-payload fsync variance
     swamping a 400-request p99. *)
  let single_gen ~client ~i =
    request_text ~read_pct:0 ~value_bytes:0 ~client ~i ()
  in
  let single_serial =
    cell ~gen:single_gen ~label:"single_serial_c1" ~batch:false ~databases:1
      ~clients:1 ~total:sharded_single_total ()
  in
  let single =
    cell ~gen:single_gen ~label:"single_c1" ~batch:true ~databases:1
      ~clients:1 ~total:sharded_single_total ()
  in
  let g name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge ("loadgen.sharded." ^ name)) v
  in
  g "databases" (float_of_int databases);
  g "cores" (float_of_int (Domain.recommended_domain_count ()));
  g "single_serial_p99_s" single_serial.stats.Obs.Metrics.p99;
  g "single_p99_s" single.stats.Obs.Metrics.p99;
  Printf.printf "mixed-tenant throughput on %d databases at 8 clients: %.1f req/s\n%!"
    databases (throughput mixed);
  Printf.printf "single-database c1 p99: serial %.1f us, default %.1f us\n%!"
    (single_serial.stats.Obs.Metrics.p99 *. 1e6)
    (single.stats.Obs.Metrics.p99 *. 1e6);
  cfg.read_pct <- saved_read_pct;
  cfg.value_bytes <- saved_value_bytes;
  [ mixed; single_serial; single ]

(* The E18 failover drill: real [mlds_server] subprocesses — a primary
   and a warm standby wired with --standby-of — because the point is the
   production path: two processes, two WALs, a TCP stream between them.
   Write through the primary while sampling repl.lag_bytes, let the
   standby drain, SIGKILL the primary (no shutdown courtesy), SIGUSR1
   the standby and time until it accepts its first write. Every write
   the dead primary acked must be readable on the promoted standby.
   Everything lands in BENCH_pr9.json; CI guards lost_writes = 0. *)
let failover_writes = 150

let server_binary () =
  let dir = Filename.dirname Sys.executable_name in
  let cand = Filename.concat dir "../bin/mlds_server.exe" in
  if Sys.file_exists cand then cand
  else failwith ("loadgen: cannot find mlds_server.exe near " ^ dir)

let spawn_server ~log args =
  let bin = server_binary () in
  let fd = Unix.openfile log Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  pid

(* poll the server's log for the readiness line and return the bound
   port — the servers run with --port 0, so the log is the only place
   the chosen port exists *)
let wait_listening ~log =
  let port_of content =
    let key = "listening on " in
    let klen = String.length key and n = String.length content in
    let rec find i =
      if i + klen > n then None
      else if String.sub content i klen = key then Some (i + klen)
      else find (i + 1)
    in
    Option.bind (find 0) (fun s ->
        Option.bind (String.index_from_opt content s '\n') (fun e ->
            let addr = String.sub content s (e - s) in
            Option.bind (String.rindex_opt addr ':') (fun c ->
                int_of_string_opt
                  (String.sub addr (c + 1) (String.length addr - c - 1)))))
  in
  let deadline = Obs.Clock.now_s () +. 30. in
  let rec go () =
    let content =
      try In_channel.with_open_text log In_channel.input_all
      with Sys_error _ -> ""
    in
    match port_of content with
    | Some port -> port
    | None ->
      if Obs.Clock.now_s () > deadline then
        failwith ("loadgen: server never came up, see " ^ log);
      Unix.sleepf 0.05;
      go ()
  in
  go ()

(* one numeric metric out of a Stats snapshot, the mlds_top way *)
let stats_metric c name =
  let module J = Obs.Json in
  match Client.stats c with
  | Error _ -> None
  | Ok out -> (
    match J.parse out with
    | Error _ -> None
    | Ok json -> (
      match J.member "metrics" json with
      | Some (J.Arr items) ->
        List.find_map
          (fun item ->
            match J.str_member "name" item with
            | Some n when String.equal n name -> J.num_member "value" item
            | _ -> None)
          items
      | _ -> None))

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let run_failover cfg =
  ignore cfg;
  let dir = Filename.temp_file "loadgen_e18" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let in_dir f = Filename.concat dir f in
  let plog = in_dir "primary.log" and slog = in_dir "standby.log" in
  Printf.printf "E18 scratch dir: %s\n%!" dir;
  let ppid =
    spawn_server ~log:plog
      [ "--port"; "0"; "--wal"; in_dir "p.wal"; "--max-seconds"; "300" ]
  in
  let pport = wait_listening ~log:plog in
  let spid =
    spawn_server ~log:slog
      [
        "--port"; "0"; "--wal"; in_dir "s.wal";
        "--standby-of"; Printf.sprintf "127.0.0.1:%d" pport;
        "--max-seconds"; "300";
      ]
  in
  let sport = wait_listening ~log:slog in
  Printf.printf "E18: primary pid %d port %d, standby pid %d port %d\n%!" ppid
    pport spid sport;
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "loadgen FAILED: %s\n%!" msg;
        (try Unix.kill ppid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.kill spid Sys.sigkill with Unix.Unix_error _ -> ());
        exit 1)
      fmt
  in
  let connect_login port =
    match Client.connect ~host:"127.0.0.1" ~port () with
    | Error msg -> Error msg
    | Ok c -> (
      match Client.login c ~user:"e18" ~language:"abdl" ~db:"university" () with
      | Ok _ -> Ok c
      | Error e ->
        Client.close c;
        Error (Client.error_to_string e))
  in
  let pc =
    match connect_login pport with
    | Ok c -> c
    | Error msg -> die "cannot reach primary: %s" msg
  in
  (* phase 1: write through the primary, sampling replication lag *)
  let acked = ref 0 and steady_lag = ref 0. in
  for i = 0 to failover_writes - 1 do
    let src =
      Printf.sprintf "INSERT (<FILE, e18>, <seq, %d>, <payload, 'v%04d'>)" i i
    in
    (match Client.submit pc src with
    | Ok _ -> incr acked
    | Error e -> die "primary write %d: %s" i (Client.error_to_string e));
    if i mod 10 = 9 then
      match stats_metric pc "repl.lag_bytes" with
      | Some lag -> steady_lag := Float.max !steady_lag lag
      | None -> ()
  done;
  (* let the standby drain: an acked write is only guaranteed to survive
     failover once the stream has delivered it (replication is async) *)
  let drain_deadline = Obs.Clock.now_s () +. 30. in
  let rec drain () =
    match stats_metric pc "repl.lag_bytes" with
    | Some 0. -> ()
    | Some _ | None ->
      if Obs.Clock.now_s () > drain_deadline then
        die "standby never drained (see %s)" slog;
      Unix.sleepf 0.05;
      drain ()
  in
  drain ();
  (* phase 2: kill the primary cold, promote the standby, and time how
     long until it takes its first write *)
  Unix.kill ppid Sys.sigkill;
  ignore (Unix.waitpid [] ppid);
  Client.abandon pc;
  let t0 = Obs.Clock.now_s () in
  Unix.kill spid Sys.sigusr1;
  let promote_deadline = t0 +. 30. in
  let rec first_write () =
    if Obs.Clock.now_s () > promote_deadline then
      die "standby never accepted a write after promote (see %s)" slog;
    match connect_login sport with
    | Error _ ->
      Unix.sleepf 0.02;
      first_write ()
    | Ok c -> (
      match
        Client.submit c "INSERT (<FILE, e18f>, <seq, 0>, <payload, 'f0'>)"
      with
      | Ok _ -> c
      | Error (`Refused (Server.Wire.Read_only, _)) ->
        Client.close c;
        Unix.sleepf 0.02;
        first_write ()
      | Error e -> die "post-promote write: %s" (Client.error_to_string e))
  in
  let sc = first_write () in
  let failover_s = Obs.Clock.since t0 in
  (* phase 3: every write the dead primary acked must be on the new
     primary, and it must keep taking new ones *)
  let lost = ref 0 in
  for i = 0 to !acked - 1 do
    let q =
      Printf.sprintf "RETRIEVE ((FILE = 'e18') AND (seq = %d)) (payload)" i
    in
    let want = Printf.sprintf "v%04d" i in
    match Client.submit sc q with
    | Ok out when contains out want -> ()
    | Ok _ | Error _ -> incr lost
  done;
  let post_ok = ref 1 (* the probe write above *) in
  for i = 1 to 19 do
    let src =
      Printf.sprintf "INSERT (<FILE, e18f>, <seq, %d>, <payload, 'f%d'>)" i i
    in
    match Client.submit sc src with
    | Ok _ -> incr post_ok
    | Error e -> die "post-failover write %d: %s" i (Client.error_to_string e)
  done;
  Client.close sc;
  (try Unix.kill spid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] spid);
  let g name v =
    Obs.Metrics.set_gauge (Obs.Metrics.gauge ("loadgen.e18." ^ name)) v
  in
  g "acked_writes" (float_of_int !acked);
  g "lost_writes" (float_of_int !lost);
  g "steady_lag_bytes" !steady_lag;
  g "failover_s" failover_s;
  g "post_failover_ok" (float_of_int !post_ok);
  Printf.printf
    "E18: %d acked writes, %d lost after failover; steady lag peak %.0f \
     bytes; promote-to-first-write %.3fs; %d post-failover writes\n%!"
    !acked !lost !steady_lag failover_s !post_ok;
  if !lost > 0 then die "%d acked writes lost across failover" !lost;
  []

let () =
  let cfg = parse_args () in
  let hosted =
    (* --quick/--planner/--telemetry/--soak/--failover/--sharded manage
       their own servers; --batch self-hosts one *)
    if
      cfg.quick || cfg.planner || cfg.telemetry || cfg.soak || cfg.failover
      || cfg.sharded
    then None
    else
      match cfg.batch with
      | None ->
        probe cfg;
        None
      | Some batch ->
        let hosted =
          start_server ~batch ~databases:cfg.databases ()
        in
        let server, _ = hosted in
        cfg.host <- "127.0.0.1";
        cfg.port <- Server.Core.port server;
        Some hosted
  in
  let reports =
    if cfg.planner then begin
      Printf.printf
        "loadgen E15 planner sweep: %d grid rows, point/range/fullscan at 8 \
         clients\n%!"
        grid_rows;
      run_planner cfg
    end
    else if cfg.telemetry then begin
      Printf.printf
        "loadgen E16 telemetry overhead: %d requests/cell, recorder off vs \
         on at 8 clients\n%!"
        telemetry_total;
      run_telemetry cfg
    end
    else if cfg.soak then begin
      Printf.printf
        "loadgen E17 soak: %d write-heavy phases, online checkpoint every \
         %d WAL bytes\n%!"
        soak_phases soak_every_bytes;
      run_soak cfg
    end
    else if cfg.failover then begin
      Printf.printf
        "loadgen E18 failover: %d writes through a replicated pair, then \
         SIGKILL the primary and promote\n%!"
        failover_writes;
      run_failover cfg
    end
    else if cfg.sharded then begin
      Printf.printf
        "loadgen E19 mixed tenants: %d requests/cell over %d databases at \
         8 clients, plus the single-database c1 guard\n%!"
        sharded_total
        (Stdlib.max 2 cfg.databases);
      run_sharded cfg
    end
    else if cfg.quick then begin
      Printf.printf
        "loadgen E14 matrix: %d requests/cell, %d%% reads, serial vs batched \
         at 1/4/8 clients\n%!"
        quick_total cfg.read_pct;
      run_matrix cfg
    end
    else if cfg.sweep <> [] then begin
      (* fixed total work, varying concurrency: the E13 experiment *)
      let total = cfg.clients * cfg.requests in
      Printf.printf "loadgen sweep: %d total requests at concurrency %s\n%!"
        total
        (String.concat "," (List.map string_of_int cfg.sweep));
      List.map
        (fun clients ->
          let r =
            run_once ~cfg ~label:(Printf.sprintf "c%d" clients) ~clients
              ~requests_per_client:(max 1 (total / clients)) ()
          in
          print_report r;
          r)
        cfg.sweep
    end
    else begin
      let r =
        run_once ~cfg ~label:"main" ~clients:cfg.clients
          ~requests_per_client:cfg.requests ()
      in
      print_report r;
      [ r ]
    end
  in
  (match hosted with Some h -> stop_server h | None -> ());
  let failed = List.exists (fun r -> r.total_errors <> []) reports in
  (match cfg.json with
  | None -> ()
  | Some path ->
    (* fold run-level results into the registry, then dump it: the same
       JSON-lines artifact shape CI already parses for BENCH_pr2 *)
    List.iter
      (fun r ->
        let g name v =
          Obs.Metrics.set_gauge
            (Obs.Metrics.gauge (Printf.sprintf "loadgen.%s.%s" r.label name))
            v
        in
        g "throughput_rps" (throughput r);
        g "clients" (float_of_int r.clients);
        g "ok_total" (float_of_int r.total_ok);
        g "overloaded_total" (float_of_int r.total_overloaded))
      reports;
    Obs.Export.write_metrics_file path;
    Printf.printf "wrote metrics artifact %s\n%!" path);
  let tput label =
    match List.find_opt (fun r -> String.equal r.label label) reports with
    | Some r -> throughput r
    | None -> 0.
  in
  (if cfg.quick then
     let serial = tput "serial_c8" and batched = tput "batch_c8" in
     if serial > 0. then
       Printf.printf "batched/serial throughput at 8 clients: %.2fx\n%!"
         (batched /. serial));
  (if cfg.planner then begin
     let cv name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
     Printf.printf
       "abdm.select.indexed %d  vs  abdm.select.scan %d  (auto-built %d \
        indexes)\n%!"
       (cv "abdm.select.indexed")
       (cv "abdm.select.scan")
       (cv "abdm.plan.auto_index");
     let point = tput "planner_point_c8" and fullscan = tput "planner_fullscan_c8" in
     if fullscan > 0. then
       Printf.printf "point/fullscan throughput at 8 clients: %.1fx\n%!"
         (point /. fullscan)
   end);
  if failed then begin
    print_endline "loadgen FAILED (protocol errors above)";
    exit 1
  end
  else if cfg.quick then print_endline "loadgen quick-mode OK"
  else if cfg.planner then print_endline "loadgen planner-mode OK"
  else if cfg.telemetry then print_endline "loadgen telemetry-mode OK"
  else if cfg.soak then print_endline "loadgen soak-mode OK"
  else if cfg.failover then print_endline "loadgen failover-mode OK"
  else if cfg.sharded then print_endline "loadgen sharded-mode OK"

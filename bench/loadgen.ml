(* Load generator for the MLDS server tier: N concurrent clients × M
   requests each, in a closed loop (next request leaves when the response
   arrives) or an open loop (--rate R: each client fires on a fixed
   schedule of R requests/second and the response time absorbs the lag —
   queueing shows up as latency, the textbook open-loop shape).

   Every latency is observed into the process-wide Obs registry
   (loadgen.latency_s, plus loadgen.<label>.latency_s per cell), so the
   report and the JSON artifact are the same p50/p90/p99 machinery the
   rest of the repo uses. Overloaded responses (the server's typed
   admission-control rejection) are counted and retried after a short
   backoff; protocol errors are never retried — they fail the run.

   Two ways to point it at a server:
   - default: drive an external mlds_server at --host/--port with
     --clients × --requests of a --read-pct mix: writes insert into a
     client-private kernel file (loadgen_c<i>), reads aggregate over the
     university employees, so the server multiplexes genuinely
     concurrent mutating sessions without the clients logically
     interfering;
   - --scenario NAME: run one entry of the scenario table below (the
     server-tier experiments E13–E19). Each entry self-hosts in-process
     Server.Core instances (ephemeral port, fsync'd WALs in a temp
     directory removed at stop), runs their closed-loop cells, writes
     BENCH_<name>.json (or --json) and ends with "loadgen <name> OK". *)

let usage =
  "loadgen [--host H] [--port P] [--clients N] [--requests M] [--rate R]\n\
  \        [--read-pct PCT] [--standby H:P] [--json FILE]\n\
  \        [--scenario sweep|matrix|planner|telemetry|soak|failover|tenants]"

type cfg = {
  host : string;
  port : int;
  clients : int;
  requests : int;  (* per client *)
  rate : float;  (* open loop requests/s per client; 0 = closed *)
  read_pct : int;  (* percentage of requests that are RETRIEVEs *)
  standby : (string * int) option;
      (* route the RETRIEVEs of the mix to this warm standby *)
  json : string option;
  scenario : string option;
}

let parse_args () =
  let bad fmt =
    Printf.ksprintf (fun msg -> Printf.eprintf "%s\n%s\n" msg usage; exit 2) fmt
  in
  let rec go cfg = function
    | [] -> cfg
    | "--host" :: v :: rest -> go { cfg with host = v } rest
    | "--port" :: v :: rest -> go { cfg with port = int_of_string v } rest
    | "--clients" :: v :: rest -> go { cfg with clients = int_of_string v } rest
    | "--requests" :: v :: rest -> go { cfg with requests = int_of_string v } rest
    | "--rate" :: v :: rest -> go { cfg with rate = float_of_string v } rest
    | "--read-pct" :: v :: rest ->
      let p = int_of_string v in
      if p < 0 || p > 100 then bad "--read-pct must be in 0..100";
      go { cfg with read_pct = p } rest
    | "--standby" :: v :: rest ->
      let hp =
        Option.bind (String.rindex_opt v ':') (fun i ->
            Option.map
              (fun p -> (String.sub v 0 i, p))
              (int_of_string_opt
                 (String.sub v (i + 1) (String.length v - i - 1))))
      in
      if hp = None then bad "--standby takes HOST:PORT";
      go { cfg with standby = hp } rest
    | "--json" :: v :: rest -> go { cfg with json = Some v } rest
    | "--scenario" :: v :: rest -> go { cfg with scenario = Some v } rest
    | ("--help" | "-h") :: _ -> print_endline usage; exit 0
    | arg :: _ -> bad "unknown argument %s" arg
  in
  go
    {
      host = "127.0.0.1";
      port = 7207;
      clients = 4;
      requests = 50;
      rate = 0.;
      read_pct = 80;
      standby = None;
      json = None;
      scenario = None;
    }
    (List.tl (Array.to_list Sys.argv))

(* --- request mixes --------------------------------------------------------- *)

(* The statement client [client] sends as its [i]-th request. *)
type mix = client:int -> i:int -> string

(* Spread the writes evenly through the sequence: request [i] is a write
   exactly when the running write quota crosses an integer there, so
   read_pct 80 gives the i mod 5 = 4 pattern, read_pct 100 never writes. *)
let rw_mix ?(value_bytes = 0) read_pct ~client ~i =
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

(* --- one client ------------------------------------------------------------ *)

type client_report = {
  ok : int;
  overloaded : int;  (* typed rejections observed (each retried) *)
  errors : string list;  (* protocol/refusal failures: fail the run *)
  elapsed_s : float;  (* the timed window only: post-barrier, post-warmup *)
}

(* Which database client [i] logs into: round-robin over the [uni<k>]
   family when the server holds several databases, the classic
   'university' otherwise. *)
let db_for_client ~databases client =
  if databases <= 1 then "university"
  else Printf.sprintf "uni%d" (client mod databases)

(* [barrier] synchronises the measurement window: each client connects,
   logs in and runs [warmup] unrecorded requests, then checks in and
   spins until everyone has — so connect/login/warmup cost never lands
   in the recorded latencies or the wall clock. *)
let run_client ~host ~port ~standby ~rate ~databases ~mix ~label ~client
    ~requests ~warmup ~barrier ~parties () =
  let hist = Obs.Metrics.histogram "loadgen.latency_s" in
  let hist_l =
    Obs.Metrics.histogram (Printf.sprintf "loadgen.%s.latency_s" label)
  in
  let fail msg = { ok = 0; overloaded = 0; errors = [ msg ]; elapsed_s = 0. } in
  match Client.connect ~host ~port () with
  | Error msg ->
    Atomic.incr barrier;  (* never leave the others spinning *)
    fail msg
  | Ok c ->
    let db = db_for_client ~databases client in
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
          match standby with
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
          let src = mix ~client ~i in
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
        let interval = if rate > 0. then 1. /. rate else 0. in
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

(* --- a measured cell at one concurrency level ------------------------------ *)

type run_report = {
  label : string;
  clients : int;
  total_ok : int;
  total_overloaded : int;
  total_errors : string list;
  wall_s : float;
  stats : Obs.Metrics.histogram_stats;
}

let run_once ~host ~port ~standby ~rate ~databases ~mix ~label
    ~clients ~requests_per_client () =
  let warmup = max 4 (requests_per_client / 20) in
  let barrier = Atomic.make 0 in
  let client_run client () =
    run_client ~host ~port ~standby ~rate ~databases ~mix ~label ~client
      ~requests:requests_per_client ~warmup ~barrier ~parties:clients ()
  in
  (* One domain per client wants one core per client. On a small box
     the domains cost more than they parallelise — every minor GC is a
     stop-the-world sync across all of them — so fall back to plain
     threads (blocking socket IO releases the runtime lock, which is
     all the concurrency a closed-loop client needs). *)
  let reports =
    if Domain.recommended_domain_count () > clients then
      List.map Domain.join
        (List.init clients (fun client -> Domain.spawn (client_run client)))
    else
      let results = Array.make clients None in
      let threads =
        List.init clients (fun client ->
            Thread.create
              (fun () -> results.(client) <- Some (client_run client ()))
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

(* Print a finished cell and fold it into the registry as the same
   record for every cell: the artifact's loadgen.<label>.* gauges. *)
let emit r =
  Printf.printf
    "%-10s %2d clients  %5d ok  %4d overloaded  %8.1f req/s  p50 %.1f us  \
     p90 %.1f us  p99 %.1f us\n%!"
    r.label r.clients r.total_ok r.total_overloaded (throughput r)
    (r.stats.Obs.Metrics.p50 *. 1e6)
    (r.stats.Obs.Metrics.p90 *. 1e6)
    (r.stats.Obs.Metrics.p99 *. 1e6);
  List.iter (fun e -> Printf.printf "  !! %s\n%!" e) r.total_errors;
  let g name v =
    Obs.Metrics.set_gauge
      (Obs.Metrics.gauge (Printf.sprintf "loadgen.%s.%s" r.label name))
      v
  in
  g "throughput_rps" (throughput r);
  g "clients" (float_of_int r.clients);
  g "ok_total" (float_of_int r.total_ok);
  g "overloaded_total" (float_of_int r.total_overloaded)

(* a scenario's own summary numbers: loadgen.<prefix>.<name> *)
let gauge prefix name v =
  Obs.Metrics.set_gauge (Obs.Metrics.gauge ("loadgen." ^ prefix ^ "." ^ name)) v

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "loadgen FAILED: %s\n%!" msg;
      exit 1)
    fmt

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

(* --- self-hosted servers --------------------------------------------------- *)

(* One closed-loop cell: [total] requests spread over [clients]. *)
type cell = { label : string; clients : int; total : int; mix : mix }

(* A server of a scenario: what to preload, how to configure it, and the
   cells run against it in order. *)
type server = {
  databases : int;  (* 1 = 'university'; N > 1 = uni0..uniN-1, same rows *)
  grid : int option;  (* rows of a dense integer-keyed file 'grid' *)
  config : Server.Core.config;
  cells : cell list;
}

type hosted = { srv : server; core : Server.Core.t; dir : string }

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let wal_path dir db = Filename.concat dir (db ^ ".wal")

(* A fresh system per server so every server starts from the same state:
   the preload, then a real fsync'd WAL per database — the durability
   cost group commit is meant to amortise — in the server's own temp
   directory, beside the snapshots its checkpoints write. *)
let start srv =
  let sys = Mlds.System.create () in
  let dbs = List.init srv.databases (db_for_client ~databases:srv.databases) in
  List.iter
    (fun name ->
      match
        Mlds.System.define_functional sys ~name ~ddl:Daplex.University.ddl
          Daplex.University.rows
      with
      | Ok () -> ()
      | Error msg -> failwith ("loadgen: preload failed: " ^ msg))
    dbs;
  (* the planner sweep's haystack, inserted before the WAL attaches so
     preload never hits the log *)
  Option.iter
    (fun rows ->
      match Mlds.System.kernel_of sys "university" with
      | None -> failwith "loadgen: no kernel for grid preload"
      | Some kernel ->
        for i = 0 to rows - 1 do
          ignore
            (Mapping.Kernel.insert kernel
               (Abdm.Record.make
                  [ Abdm.Keyword.file "grid";
                    Abdm.Keyword.make "k" (Abdm.Value.Int i) ]))
        done)
    srv.grid;
  let dir = Filename.temp_dir "loadgen" "" in
  List.iter
    (fun db ->
      match
        Mlds.System.attach_wal sys ~db ~file:(wal_path dir db)
      with
      | Ok _ -> ()
      | Error msg -> failwith ("loadgen: cannot attach WAL: " ^ msg))
    dbs;
  match Server.Core.create ~config:srv.config sys with
  | Error msg -> failwith ("loadgen: cannot self-host: " ^ msg)
  | Ok core -> { srv; core; dir }

let stop h =
  Server.Core.shutdown h.core;
  remove_tree h.dir

let run_cells h =
  List.map
    (fun c ->
      let r =
        run_once ~host:h.srv.config.Server.Core.host
          ~port:(Server.Core.port h.core) ~standby:None ~rate:0.
          ~databases:h.srv.databases ~mix:c.mix ~label:c.label
          ~clients:c.clients ~requests_per_client:(c.total / c.clients) ()
      in
      emit r;
      r)
    h.srv.cells

(* The runner for a fixed entry: each server in turn, its cells in order. *)
let serve_all servers =
  List.concat_map
    (fun srv ->
      let h = start srv in
      Fun.protect ~finally:(fun () -> stop h) (fun () -> run_cells h))
    servers

(* a fixed entry plus a summary over its reports *)
let serve_then summary servers =
  let reports = serve_all servers in
  summary reports;
  reports

let find reports label =
  List.find_opt (fun (r : run_report) -> String.equal r.label label) reports

let tput reports label =
  match find reports label with
  | Some r -> throughput r
  | None -> 0.

(* --- E14: serial vs batched executor --------------------------------------- *)

let matrix_summary reports =
  let serial = tput reports "serial_c8" and batched = tput reports "batch_c8" in
  if serial > 0. then
    Printf.printf "batched/serial throughput at 8 clients: %.2fx\n%!"
      (batched /. serial)

(* --- E15: the planner sweep ------------------------------------------------ *)

let grid_rows = 4000

let planner_summary reports =
  let cv name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
  Printf.printf
    "abdm.select.indexed %d  vs  abdm.select.scan %d  (auto-built %d \
     indexes)\n%!"
    (cv "abdm.select.indexed") (cv "abdm.select.scan")
    (cv "abdm.plan.auto_index");
  let point = tput reports "planner_point_c8"
  and fullscan = tput reports "planner_fullscan_c8" in
  if fullscan > 0. then
    Printf.printf "point/fullscan throughput at 8 clients: %.1fx\n%!"
      (point /. fullscan)

(* --- E16: recorder overhead under live polling ----------------------------- *)

(* A sampler thread polling Stats/Tail over the wire at 10 Hz — what
   mlds_top does — runs through both cells, so the control-lane load is
   symmetric and the measured delta is the recorder itself. Returns the
   number of Stats polls answered and the recorder's (events, slow
   captures) as last seen. *)
let with_sampler h f =
  let module J = Obs.Json in
  let stop = Atomic.make false in
  let polls = ref 0 in
  let seen = ref (0., 0.) in
  let sampler =
    Thread.create
      (fun () ->
        match
          Client.connect ~host:h.srv.config.Server.Core.host
            ~port:(Server.Core.port h.core) ()
        with
        | Error _ -> ()
        | Ok c ->
          let cursor = ref 0 and slow_cursor = ref 0 in
          let poll_once () =
            (match Client.stats c with
            | Ok out ->
              incr polls;
              (match Result.map (J.member "recorder") (J.parse out) with
              | Ok (Some r) ->
                seen :=
                  ( Option.value ~default:0. (J.num_member "next_seq" r),
                    Option.value ~default:0. (J.num_member "slow_next_seq" r) )
              | Ok None | Error _ -> ())
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
  let r = f () in
  Atomic.set stop true;
  Thread.join sampler;
  (r, !polls, !seen)

let telemetry_pairs = 10

(* linear interpolation between the closest ranks of a sorted array *)
let quantile sorted q =
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

(* A single cell lasts a fraction of a second, so one off/on pair is at
   the mercy of whatever else the machine is doing. Run
   [telemetry_pairs] pairs, alternating which side runs first, and
   report the median per-pair overhead with its quartiles. The first
   off cell pins the on server's slow threshold to its server-side p99,
   so about 1% of the recorder-on requests take the full capture path
   (statement + plan). The client-side p99 would not do: it includes
   queue wait, which the recorder's per-request latency deliberately
   excludes. The server runs in this process, so its histograms are
   readable here. *)
let telemetry servers =
  let off, on =
    match servers with
    | [ off; on ] -> (off, on)
    | _ -> invalid_arg "telemetry: wants an off and an on server"
  in
  let measure srv =
    let h = start srv in
    Fun.protect ~finally:(fun () -> stop h) (fun () ->
        with_sampler h (fun () -> List.hd (run_cells h)))
  in
  let first_off = measure off in
  let threshold =
    Float.max 1e-6
      (Obs.Metrics.histogram_stats
         (Obs.Metrics.histogram "server.request.submit_s"))
        .Obs.Metrics.p99
  in
  let on = { on with config = { on.config with slow_threshold_s = threshold } } in
  let pairs =
    List.init telemetry_pairs (fun p ->
        if p mod 2 = 1 then
          let n = measure on in
          (measure off, n)
        else
          let o = if p = 0 then first_off else measure off in
          (o, measure on))
  in
  let overheads =
    Array.of_list
      (List.map
         (fun ((o, _, _), (n, _, _)) ->
           let off_rps = throughput o in
           if off_rps > 0. then 100. *. (off_rps -. throughput n) /. off_rps
           else 0.)
         pairs)
  in
  Array.sort Float.compare overheads;
  let sum_polls side =
    List.fold_left (fun acc p -> let _, polls, _ = side p in acc + polls) 0 pairs
  in
  let polls_off = sum_polls fst and polls_on = sum_polls snd in
  let events, slow =
    List.fold_left
      (fun (e, s) (_, (_, _, (ev, sl))) -> (Float.max e ev, Float.max s sl))
      (0., 0.) pairs
  in
  let g = gauge "telemetry" in
  let p25 = quantile overheads 0.25
  and median = quantile overheads 0.5
  and p75 = quantile overheads 0.75 in
  g "overhead_pct" median;
  g "overhead_p25_pct" p25;
  g "overhead_p75_pct" p75;
  g "slow_threshold_s" threshold;
  g "stats_polls_off" (float_of_int polls_off);
  g "stats_polls_on" (float_of_int polls_on);
  g "events_recorded" events;
  g "slow_captured" slow;
  Printf.printf
    "recorder overhead at 8 clients over %d off/on pairs: median %.1f%% \
     (p25 %.1f%%, p75 %.1f%%)\n%!"
    telemetry_pairs median p25 p75;
  Printf.printf
    "mid-run Stats polls answered: %d (recorder off), %d (recorder on); \
     recorder saw %.0f events, %.0f slow captures (threshold %.1f us)\n%!"
    polls_off polls_on events slow (threshold *. 1e6);
  if polls_on = 0 || polls_off = 0 then fail "no mid-run Stats poll was answered";
  if events <= 0. then fail "recorder-on run recorded no events";
  List.concat_map (fun ((o, _, _), (n, _, _)) -> [ o; n ]) pairs

(* --- E17: the soak --------------------------------------------------------- *)

let soak_every_bytes = 32 * 1024

let soak_million = 1_000_000

(* Replay a synthetic million-frame log: the recovery time online
   checkpointing buys its way out of. *)
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

(* While the phases run, a sampler thread tracks the peak of the
   in-process wal.bytes gauge — the bound the checkpoints are supposed to
   enforce — fast enough to catch the pre-truncation peaks. After the
   shutdown, the surviving log is replayed into a fresh system: the time
   a restart would pay. *)
let soak srv =
  let h = start srv in
  Fun.protect ~finally:(fun () -> stop h) @@ fun () ->
  let stop_sampler = Atomic.make false in
  let wal_peak = ref 0. in
  let g_wal = Obs.Metrics.gauge "wal.bytes" in
  let sampler =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_sampler) do
          wal_peak := Float.max !wal_peak (Obs.Metrics.gauge_value g_wal);
          Thread.delay 0.002
        done)
      ()
  in
  let every = srv.config.Server.Core.checkpoint_every_bytes in
  let phases = run_cells h in
  Atomic.set stop_sampler true;
  Thread.join sampler;
  let checkpoints =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.checkpoint.total")
  in
  Server.Core.shutdown h.core;
  let wal_file = wal_path h.dir "university" in
  let wal_final = float_of_int (Unix.stat wal_file).Unix.st_size in
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
  let million_frames, recover_million_s = recover_million () in
  let p99 r = r.stats.Obs.Metrics.p99 in
  let first = List.hd phases and last = List.nth phases (List.length phases - 1) in
  let p99_ratio = if p99 first > 0. then p99 last /. p99 first else 0. in
  let g = gauge "soak" in
  g "checkpoints_total" (float_of_int checkpoints);
  g "every_bytes" (float_of_int every);
  g "wal_peak_bytes" !wal_peak;
  g "wal_final_bytes" wal_final;
  g "wal_bound_ratio" (!wal_peak /. float_of_int every);
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
    (!wal_peak /. float_of_int every)
    every wal_final;
  Printf.printf "soak: p99 first phase %.1f us, last phase %.1f us (%.2fx)\n%!"
    (p99 first *. 1e6) (p99 last *. 1e6) p99_ratio;
  Printf.printf
    "soak: recovery replayed %d frames in %.3fs after checkpointing; a \
     %d-frame log replays in %.3fs\n%!"
    final_report.Mlds.Persist.frames recover_final_s million_frames
    recover_million_s;
  if checkpoints < 3 then fail "only %d online checkpoints fired" checkpoints;
  if !wal_peak > 10. *. float_of_int every then
    fail "WAL peak %.0f not bounded by checkpoints" !wal_peak;
  phases

(* --- E19: mixed tenants ---------------------------------------------------- *)

(* Even clients land on [uni0] and ingest 4 KiB documents (the
   fsync-heavy tenant: its group commits flush tens of kilobytes, so the
   covering fsync dominates its waves); odd clients land on [uni1] and
   run point reads (the latency-sensitive tenant). *)
let tenant_mix ~client ~i =
  if client mod 2 = 0 then rw_mix ~value_bytes:4096 0 ~client ~i
  else rw_mix 100 ~client ~i

let tenants_summary reports =
  let p99 label =
    match find reports label with
    | Some r -> r.stats.Obs.Metrics.p99
    | None -> 0.
  in
  let g = gauge "tenants" in
  g "databases" 2.;
  g "cores" (float_of_int (Domain.recommended_domain_count ()));
  g "single_serial_p99_s" (p99 "single_serial_c1");
  g "single_p99_s" (p99 "single_c1");
  Printf.printf "mixed-tenant throughput on 2 databases at 8 clients: %.1f req/s\n%!"
    (tput reports "mixed_c8");
  Printf.printf "single-database c1 p99: serial %.1f us, default %.1f us\n%!"
    (p99 "single_serial_c1" *. 1e6)
    (p99 "single_c1" *. 1e6)

(* --- E18: the failover drill ----------------------------------------------- *)

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

(* Real [mlds_server] subprocesses — a primary and a warm standby wired
   with --standby-of — because the point is the production path: two
   processes, two WALs, a TCP stream between them. Write through the
   primary while sampling repl.lag_bytes, let the standby drain, SIGKILL
   the primary (no shutdown courtesy), SIGUSR1 the standby and time
   until it accepts its first write. Every write the dead primary acked
   must be readable on the promoted standby. The drill's directory
   (WALs, logs) is kept only when it fails. *)
let failover () =
  let dir = Filename.temp_dir "loadgen_e18" "" in
  let in_dir f = Filename.concat dir f in
  let plog = in_dir "primary.log" and slog = in_dir "standby.log" in
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
        (try Unix.kill ppid Sys.sigkill with Unix.Unix_error _ -> ());
        (try Unix.kill spid Sys.sigkill with Unix.Unix_error _ -> ());
        fail "%s (E18 directory kept: %s)" msg dir)
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
  let g = gauge "e18" in
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
  remove_tree dir;
  []

(* --- the scenario table ---------------------------------------------------- *)

type scenario = {
  name : string;
  about : string;
  servers : server list;
  run : server list -> run_report list;
      (* [serve_all], or the entry's own steps around the same
         start/run/emit functions *)
}

let default = Server.Core.default_config

(* one 'university' database, no grid: the entries that need more say so
   with a record update *)
let server config cells = { databases = 1; grid = None; config; cells }

let cell label clients total mix = { label; clients; total; mix }

(* E15's access shapes: point reads one posting once the auto-index
   threshold is past; range reads an ordered-index window; fullscan
   matches every row, so the cost model must flip back to the file scan *)
let point_mix ~client ~i =
  Printf.sprintf "RETRIEVE ((FILE = grid) AND (k = %d)) (k)"
    ((client * 997 + i * 131) mod grid_rows)

let range_mix ~client ~i =
  let lo = (client * 409 + i * 53) mod (grid_rows - 50) in
  Printf.sprintf
    "RETRIEVE ((FILE = grid) AND (k >= %d) AND (k <= %d)) (COUNT(k))" lo
    (lo + 49)

let fullscan_mix ~client:_ ~i:_ =
  "RETRIEVE ((FILE = grid) AND (k >= 0)) (COUNT(k))"

let scenarios =
  [
    {
      name = "sweep";
      about = "E13: 400 requests at 1, 2, 4 and 8 clients, default server";
      servers =
        [
          server { default with port = 0 }
            (List.map
               (fun n -> cell (Printf.sprintf "c%d" n) n 400 (rw_mix 80))
               [ 1; 2; 4; 8 ]);
        ];
      run = serve_all;
    };
    {
      name = "matrix";
      about = "E14: 3200 requests/cell, serial vs batched at 1/4/8 clients";
      servers =
        List.map
          (fun (mode, batch) ->
            server { default with port = 0; batch }
              (List.map
                 (fun n ->
                   cell (Printf.sprintf "%s_c%d" mode n) n 3200 (rw_mix 80))
                 [ 1; 4; 8 ]))
          [ ("serial", false); ("batch", true) ];
      run = serve_then matrix_summary;
    };
    {
      name = "planner";
      about =
        Printf.sprintf "E15: %d grid rows, point/range/fullscan at 8 clients"
          grid_rows;
      servers =
        [
          {
            (server { default with port = 0 }
               [
                 cell "planner_point_c8" 8 2400 point_mix;
                 cell "planner_range_c8" 8 2400 range_mix;
                 (* a tenth of the work: each of these reads every row *)
                 cell "planner_fullscan_c8" 8 240 fullscan_mix;
               ])
            with
            grid = Some grid_rows;
          };
        ];
      run = serve_then planner_summary;
    };
    {
      name = "telemetry";
      about =
        Printf.sprintf
          "E16: %d off/on pairs of 3200 requests at 8 clients, recorder off \
           vs on under Stats/Tail polling"
          telemetry_pairs;
      servers =
        [
          server { default with port = 0; recorder_capacity = 0 }
            [ cell "telem_off_c8" 8 3200 (rw_mix 80) ];
          (* the slow threshold is pinned at run time *)
          server { default with port = 0; recorder_capacity = 4096 }
            [ cell "telem_on_c8" 8 3200 (rw_mix 80) ];
        ];
      run = telemetry;
    };
    {
      name = "soak";
      about =
        Printf.sprintf
          "E17: 6 write-heavy phases, online checkpoint every %d WAL bytes"
          soak_every_bytes;
      servers =
        [
          server
            { default with port = 0; checkpoint_every_bytes = soak_every_bytes }
            (List.init 6 (fun p ->
                 cell (Printf.sprintf "soak_p%d" (p + 1)) 4 800 (rw_mix 50)));
        ];
      run = List.concat_map soak;
    };
    {
      name = "failover";
      about =
        Printf.sprintf
          "E18: %d writes through a replicated pair, then SIGKILL the \
           primary and promote"
          failover_writes;
      servers = [];
      run = (fun _ -> failover ());
    };
    {
      name = "tenants";
      about =
        "E19: 6400 requests over 2 databases at 8 clients, plus the \
         single-database c1 guard";
      servers =
        [
          {
            (server { default with port = 0 }
               [ cell "mixed_c8" 8 6400 tenant_mix ])
            with
            databases = 2;
          };
          (* the c1 cells write the small payload: a pure measure of what
             the flusher hand-off adds to the durability path, without
             large-payload fsync variance swamping a 400-request p99 *)
          server { default with port = 0; batch = false }
            [ cell "single_serial_c1" 1 400 (rw_mix 0) ];
          server { default with port = 0 }
            [ cell "single_c1" 1 400 (rw_mix 0) ];
        ];
      run = serve_then tenants_summary;
    };
  ]

let () =
  let cfg = parse_args () in
  let name, reports =
    match cfg.scenario with
    | None ->
      probe cfg;
      let r =
        run_once ~host:cfg.host ~port:cfg.port ~standby:cfg.standby
          ~rate:cfg.rate ~databases:1 ~mix:(rw_mix cfg.read_pct) ~label:"main"
          ~clients:cfg.clients ~requests_per_client:cfg.requests ()
      in
      emit r;
      (None, [ r ])
    | Some name -> (
      match List.find_opt (fun s -> String.equal s.name name) scenarios with
      | None ->
        Printf.eprintf "unknown scenario %s (one of: %s)\n" name
          (String.concat ", " (List.map (fun s -> s.name) scenarios));
        exit 2
      | Some s ->
        Printf.printf "loadgen %s — %s\n%!" s.name s.about;
        (Some name, s.run s.servers))
  in
  let json =
    match cfg.json with
    | Some _ -> cfg.json
    | None -> Option.map (fun n -> "BENCH_" ^ n ^ ".json") name
  in
  Option.iter
    (fun path ->
      Obs.Export.write_metrics_file path;
      Printf.printf "wrote metrics artifact %s\n%!" path)
    json;
  if List.exists (fun r -> r.total_errors <> []) reports then
    fail "protocol errors above";
  Option.iter (fun n -> Printf.printf "loadgen %s OK\n%!" n) name

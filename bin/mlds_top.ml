(* mlds_top: a polling terminal dashboard for a live mlds_server.

   Speaks the telemetry opcodes: Stats (uptime, sessions, queue depth,
   full metrics snapshot as JSON) and Tail (flight-recorder events +
   slow-query entries since the cursors of the previous poll). Both ride
   the server's control lane, so polling never queues behind user
   traffic — and this tool keeps its own dedicated connection open, so
   it cannot reorder anyone's data replies either.

   --once renders a single frame and exits (the CI smoke uses it to
   assert a live server answers Stats/Tail mid-run). *)

module J = Obs.Json

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("mlds_top: " ^ msg); exit 1) fmt

let fmt_duration s =
  if s < 1e-3 then Printf.sprintf "%.1fus" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

let fmt_bytes b =
  if b < 1024. then Printf.sprintf "%.0fB" b
  else if b < 1024. *. 1024. then Printf.sprintf "%.1fKiB" (b /. 1024.)
  else Printf.sprintf "%.1fMiB" (b /. (1024. *. 1024.))

(* ---------- one Stats poll, parsed ---------- *)

type sample = {
  taken_s : float;  (* client clock, for rps deltas *)
  uptime_s : float;
  sessions : int;
  connections : int;
  queue_depth : int;
  requests_total : float;
  slow_threshold_s : float option;  (* None: recorder disabled *)
  metrics : (string * J.t) list;  (* name -> full sample object *)
}

let metric_num sample name field =
  match List.assoc_opt name sample.metrics with
  | Some obj -> J.num_member field obj
  | None -> None

let fetch_stats client =
  match Client.stats client with
  | Error e -> Error (Client.error_to_string e)
  | Ok out ->
    (match J.parse out with
    | Error msg -> Error ("bad Stats JSON: " ^ msg)
    | Ok json ->
      let metrics =
        match J.member "metrics" json with
        | Some (J.Arr items) ->
          List.filter_map
            (fun item ->
              match J.str_member "name" item with
              | Some name -> Some (name, item)
              | None -> None)
            items
        | _ -> []
      in
      let geti k = Option.value ~default:0 (J.int_member k json) in
      let sample =
        {
          taken_s = Unix.gettimeofday ();
          uptime_s = Option.value ~default:0. (J.num_member "uptime_s" json);
          sessions = geti "sessions";
          connections = geti "connections";
          queue_depth = geti "queue_depth";
          requests_total =
            (match List.assoc_opt "server.requests_total" metrics with
            | Some obj -> Option.value ~default:0. (J.num_member "value" obj)
            | None -> 0.);
          slow_threshold_s =
            Option.bind (J.member "recorder" json)
              (J.num_member "slow_threshold_s");
          metrics;
        }
      in
      Ok sample)

(* ---------- the Tail cursor state ---------- *)

type slow = {
  sl_latency_s : float;
  sl_session : int;
  sl_language : string;
  sl_statement : string;
  sl_plan : string;
  sl_span : string;
}

type tail_state = {
  mutable cursor : int;
  mutable slow_cursor : int;
  mutable events_seen : int;
  mutable dropped : int;
  mutable slow_entries : slow list;  (* newest first, bounded *)
}

let poll_tail client st ~keep =
  match
    Client.tail client ~cursor:st.cursor ~slow_cursor:st.slow_cursor ()
  with
  | Error _ -> ()  (* recorder disabled or old server: dashboard still works *)
  | Ok out ->
    (match J.parse out with
    | Error _ -> ()
    | Ok json ->
      st.cursor <- Option.value ~default:st.cursor (J.int_member "cursor" json);
      st.slow_cursor <-
        Option.value ~default:st.slow_cursor (J.int_member "slow_cursor" json);
      st.events_seen <-
        st.events_seen
        + (match J.member "events" json with
          | Some (J.Arr l) -> List.length l
          | _ -> 0);
      st.dropped <-
        st.dropped + Option.value ~default:0 (J.int_member "dropped" json);
      let fresh =
        match J.member "slow" json with
        | Some (J.Arr l) ->
          List.filter_map
            (fun e ->
              match J.num_member "latency_s" e with
              | Some lat ->
                Some
                  {
                    sl_latency_s = lat;
                    sl_session =
                      Option.value ~default:0 (J.int_member "session" e);
                    sl_language =
                      Option.value ~default:"-" (J.str_member "language" e);
                    sl_statement =
                      Option.value ~default:"" (J.str_member "statement" e);
                    sl_plan = Option.value ~default:"" (J.str_member "plan" e);
                    sl_span = Option.value ~default:"" (J.str_member "span" e);
                  }
              | None -> None)
            l
        | _ -> []
      in
      (* keep the worst [4 * keep] so the display's top-N is stable even
         when a poll brings a burst of mild offenders *)
      st.slow_entries <-
        List.sort
          (fun a b -> compare b.sl_latency_s a.sl_latency_s)
          (fresh @ st.slow_entries)
        |> List.filteri (fun i _ -> i < 4 * keep))

(* ---------- rendering ---------- *)

let first_line s = match String.index_opt s '\n' with
  | Some i -> String.sub s 0 i
  | None -> s

let truncate n s = if String.length s <= n then s else String.sub s 0 (n - 1) ^ "…"

let render ~target ~prev ~cur ~tail ~keep =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let rps =
    match prev with
    | Some p when cur.taken_s > p.taken_s ->
      (cur.requests_total -. p.requests_total) /. (cur.taken_s -. p.taken_s)
    | _ -> 0.
  in
  add "mlds_top — %s   uptime %.1fs   sessions %d   conns %d   queue %d\n"
    target cur.uptime_s cur.sessions cur.connections cur.queue_depth;
  add "requests %.0f total   %.1f rps   rejected %.0f   internal %.0f   \
       disconnects %.0f   slow %.0f\n"
    cur.requests_total rps
    (Option.value ~default:0. (metric_num cur "server.rejected_total" "value"))
    (Option.value ~default:0. (metric_num cur "server.internal_errors" "value"))
    (Option.value ~default:0.
       (metric_num cur "server.disconnects_total" "value"))
    (Option.value ~default:0.
       (metric_num cur "server.slow_queries_total" "value"));
  add "wal %s   checkpoints %.0f (last reclaimed %s, p99 %s)\n"
    (fmt_bytes (Option.value ~default:0. (metric_num cur "wal.bytes" "value")))
    (Option.value ~default:0.
       (metric_num cur "server.checkpoint.total" "value"))
    (fmt_bytes
       (Option.value ~default:0.
          (metric_num cur "server.checkpoint.reclaimed_bytes" "value")))
    (fmt_duration
       (Option.value ~default:0.
          (metric_num cur "server.checkpoint.duration_s" "p99")));
  add "wal fsync p99 %s   batch p90 %.0f\n"
    (fmt_duration
       (Option.value ~default:0. (metric_num cur "wal.fsync_s" "p99")))
    (Option.value ~default:0. (metric_num cur "server.batch_size" "p90"));
  let counter name =
    Option.value ~default:0. (metric_num cur name "value")
  in
  (* the server's OCaml heap, sampled when Stats is served; a leak shows
     as live words that keep climbing under a steady load *)
  let words name = counter name *. float_of_int (Sys.word_size / 8) in
  add "memory heap %s   live %s\n"
    (fmt_bytes (words "proc.heap_words"))
    (fmt_bytes (words "proc.live_words"));
  (* MBDS broadcast shares: run by the calling domain vs taken by a pool
     worker; the line vanishes while no broadcast has run *)
  let inline = counter "mbds.shares_inline" in
  let remote = counter "mbds.shares_remote" in
  if inline +. remote > 0. then
    add "mbds shares %.0f inline   %.0f remote (%.1f%% on workers)\n" inline
      remote
      (100. *. remote /. (inline +. remote));
  (* replication: a primary shows per-standby worst-case lag; a standby
     shows its apply progress. Both lines vanish when the plane is off. *)
  (match metric_num cur "repl.standbys" "value" with
  | Some n when n > 0. ->
    add
      "repl %d standby%s   lag %s / %.0f frames / %s   shipped %.0f   \
       bootstraps %.0f\n"
      (int_of_float n)
      (if n = 1. then "" else "s")
      (fmt_bytes
         (Option.value ~default:0. (metric_num cur "repl.lag_bytes" "value")))
      (Option.value ~default:0. (metric_num cur "repl.lag_frames" "value"))
      (fmt_duration
         (Option.value ~default:0. (metric_num cur "repl.lag_s" "value")))
      (Option.value ~default:0.
         (metric_num cur "repl.frames_shipped" "value"))
      (Option.value ~default:0.
         (metric_num cur "repl.snapshot_bootstraps" "value"))
  | _ -> ());
  (match metric_num cur "repl.frames_applied" "value" with
  | Some applied when applied > 0. ->
    add "repl standby: %.0f frames applied   %.0f frames/s   bootstraps %.0f\n"
      applied
      (Option.value ~default:0.
         (metric_num cur "repl.apply_frames_per_s" "value"))
      (Option.value ~default:0.
         (metric_num cur "repl.standby_bootstraps" "value"))
  | _ -> ());
  (* per-opcode latencies, from the server.request.<opcode>_s histograms *)
  add "\n%-10s %10s %10s %10s %10s\n" "opcode" "count" "p50" "p99" "max";
  let prefix = "server.request." in
  List.iter
    (fun (name, obj) ->
      (* every opcode's histogram exists from start-up: list the used ones *)
      if
        Option.value ~default:0. (J.num_member "count" obj) > 0.
        && String.length name > String.length prefix + 2
        && String.sub name 0 (String.length prefix) = prefix
        && String.sub name (String.length name - 2) 2 = "_s"
      then begin
        let opcode =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix - 2)
        in
        let f field = Option.value ~default:0. (J.num_member field obj) in
        add "%-10s %10.0f %10s %10s %10s\n" opcode (f "count")
          (fmt_duration (f "p50"))
          (fmt_duration (f "p99"))
          (fmt_duration (f "max"))
      end)
    cur.metrics;
  (* the slow-query log *)
  (match cur.slow_threshold_s with
  | None -> add "\nflight recorder disabled (--recorder-cap 0)\n"
  | Some threshold ->
    add "\nslow queries (threshold %s; %d recorder events seen, %d dropped):\n"
      (fmt_duration threshold) tail.events_seen tail.dropped;
    let top = List.filteri (fun i _ -> i < keep) tail.slow_entries in
    if top = [] then add "  (none captured yet)\n"
    else
      List.iter
        (fun s ->
          add "  %8s  s%-4d %-8s %s\n"
            (fmt_duration s.sl_latency_s)
            s.sl_session s.sl_language
            (truncate 70 (first_line s.sl_statement));
          add "            span %s\n" s.sl_span;
          String.split_on_char '\n' s.sl_plan
          |> List.iter (fun line ->
                 if line <> "" then add "            | %s\n" (truncate 90 line)))
        top);
  Buffer.contents b

(* ---------- main loop ---------- *)

let run connect interval once keep frames =
  let host, port =
    match String.rindex_opt connect ':' with
    | Some i ->
      let host = String.sub connect 0 i in
      let rest = String.sub connect (i + 1) (String.length connect - i - 1) in
      (match int_of_string_opt rest with
      | Some p -> ((if host = "" then "127.0.0.1" else host), p)
      | None -> die "bad --connect %S (expected HOST:PORT)" connect)
    | None -> die "bad --connect %S (expected HOST:PORT)" connect
  in
  let client =
    match Client.connect ~host ~port () with
    | Ok c -> c
    | Error msg -> die "%s" msg
  in
  let tail =
    { cursor = 0; slow_cursor = 0; events_seen = 0; dropped = 0;
      slow_entries = [] }
  in
  (* Fail fast if the server is unreachable or too old for Stats; both
     cursors start at 0, so the first Tail drains whatever recent
     history the ring still holds (bounded by its capacity). *)
  (match fetch_stats client with
  | Ok _ -> ()
  | Error msg -> die "%s" msg);
  let interval = if interval > 0. then interval else 1.0 in
  let frames = if once then 1 else frames in
  let rec loop n prev =
    if frames > 0 && n > frames then ()
    else begin
      let cur =
        match fetch_stats client with
        | Ok s -> s
        | Error msg -> die "%s" msg
      in
      poll_tail client tail ~keep;
      let prev =
        match prev with
        | Some _ -> prev
        | None when once ->
          (* --once still wants an rps figure: take a short second sample *)
          Thread.delay 0.4;
          Some cur
        | None -> Some cur
      in
      let cur, prev =
        if once then
          match fetch_stats client with
          | Ok s ->
            poll_tail client tail ~keep;
            (s, prev)
          | Error _ -> (cur, prev)
        else (cur, prev)
      in
      let frame =
        render ~target:(Printf.sprintf "%s:%d" host port) ~prev ~cur ~tail
          ~keep
      in
      if not once then print_string "\027[2J\027[H";
      print_string frame;
      flush stdout;
      if not (frames > 0 && n >= frames) then begin
        Thread.delay interval;
        loop (n + 1) (Some cur)
      end
    end
  in
  loop 1 None;
  Client.close client;
  0

open Cmdliner

let connect_arg =
  let doc = "Server to watch, as HOST:PORT." in
  Arg.(
    required
    & opt (some string) None
    & info [ "connect"; "c" ] ~docv:"HOST:PORT" ~doc)

let interval_arg =
  let doc = "Seconds between polls." in
  Arg.(value & opt float 1.0 & info [ "interval"; "i" ] ~docv:"SECONDS" ~doc)

let once_arg =
  let doc = "Render one frame and exit (for scripts and CI smokes)." in
  Arg.(value & flag & info [ "once" ] ~doc)

let slow_arg =
  let doc = "Show the worst $(docv) slow queries." in
  Arg.(value & opt int 5 & info [ "slow" ] ~docv:"N" ~doc)

let frames_arg =
  let doc = "Exit after $(docv) frames (0 = run until interrupted)." in
  Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)

let cmd =
  let doc = "live telemetry dashboard for a running mlds_server" in
  Cmd.v
    (Cmd.info "mlds_top" ~version:"1.0.0" ~doc)
    Term.(
      const run $ connect_arg $ interval_arg $ once_arg $ slow_arg
      $ frames_arg)

let () = exit (Cmd.eval' cmd)

(* The telemetry plane's in-process pieces: the Obs.Json parser, the
   flight recorder's ring (overwrite semantics, cursor contract,
   torn-record freedom under concurrent writer domains, no allocation
   per event), the slow-query log, and the Telemetry JSONL sink.

   The two concurrency properties here are the recorder's contract:
   - a drained event is always internally consistent (never stitched
     from two writers), checked by deriving every field from the
     event's seq and writer id and re-checking on the way out;
   - a cursor-driven poller never sees the same seq twice, and any seq
     it misses is accounted for in [dropped]. *)

module R = Obs.Recorder
module J = Obs.Json

let contains text needle = Daplex.Str_search.find text needle <> None

(* --- the Json parser ------------------------------------------------------ *)

let test_json_values () =
  let parse s =
    match J.parse s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse %S: %s" s msg
  in
  Alcotest.(check bool) "null" true (parse "null" = J.Null);
  Alcotest.(check bool) "true" true (parse " true " = J.Bool true);
  Alcotest.(check bool) "int" true (parse "42" = J.Num 42.);
  Alcotest.(check bool) "negative exponent" true (parse "-1.5e2" = J.Num (-150.));
  Alcotest.(check bool) "string escapes" true
    (parse {|"a\"b\\c\ndA"|} = J.Str "a\"b\\c\nd\065");
  Alcotest.(check bool) "surrogate pair" true
    (parse {|"😀"|} = J.Str "\xf0\x9f\x98\x80");
  Alcotest.(check bool) "array" true
    (parse "[1, 2, 3]" = J.Arr [ J.Num 1.; J.Num 2.; J.Num 3. ]);
  (match parse {|{"a": 1, "b": [true, null]}|} with
  | J.Obj [ ("a", J.Num 1.); ("b", J.Arr [ J.Bool true; J.Null ]) ] -> ()
  | _ -> Alcotest.fail "object shape");
  List.iter
    (fun bad ->
      match J.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "nul"; "\"unterminated"; "{'a':1}" ]

let test_json_render_roundtrip () =
  let v =
    J.Obj
      [
        "s", J.Str "line\nbreak \"quoted\" \t tab";
        "n", J.Num 0.25;
        "big", J.Num 123456789.;
        "l", J.Arr [ J.Null; J.Bool false ];
      ]
  in
  match J.parse (J.render v) with
  | Ok v' -> Alcotest.(check bool) "render |> parse = id" true (v = v')
  | Error msg -> Alcotest.failf "reparse: %s" msg

(* --- ring basics ---------------------------------------------------------- *)

let record_n r n =
  for i = 0 to n - 1 do
    ignore
      (R.record r ~ts_s:(float_of_int i) ~session:1 ~request_id:i
         ~language:"abdl" ~opcode:"submit" ~latency_s:0.001 ~bytes_in:10
         ~bytes_out:20 ~outcome:R.O_ok ~batch:0)
  done

let test_ring_fill_and_drain () =
  let r = R.create ~capacity:8 ~slow_capacity:4 ~slow_threshold_s:1.0 () in
  record_n r 5;
  let events, cursor, dropped = R.events_since r ~cursor:0 ~max_events:100 in
  Alcotest.(check int) "all five" 5 (List.length events);
  Alcotest.(check int) "cursor past the end" 5 cursor;
  Alcotest.(check int) "nothing dropped" 0 dropped;
  Alcotest.(check (list int)) "ascending seqs" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (e : R.event) -> e.seq) events);
  (* an empty poll holds the cursor still *)
  let events, cursor', dropped = R.events_since r ~cursor ~max_events:100 in
  Alcotest.(check int) "empty drain" 0 (List.length events);
  Alcotest.(check int) "cursor unmoved" cursor cursor';
  Alcotest.(check int) "still nothing dropped" 0 dropped

let test_ring_overwrite_counts_dropped () =
  let r = R.create ~capacity:8 ~slow_capacity:4 ~slow_threshold_s:1.0 () in
  record_n r 20;  (* seqs 0..19; the ring holds 12..19 *)
  let events, cursor, dropped = R.events_since r ~cursor:0 ~max_events:100 in
  Alcotest.(check int) "a full ring survives" 8 (List.length events);
  Alcotest.(check int) "overwritten seqs are accounted" 12 dropped;
  Alcotest.(check int) "cursor at the head" 20 cursor;
  Alcotest.(check (list int)) "the newest capacity-many, in order"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun (e : R.event) -> e.seq) events)

let test_ring_max_events_pages () =
  let r = R.create ~capacity:16 ~slow_capacity:4 ~slow_threshold_s:1.0 () in
  record_n r 10;
  let a, c1, d1 = R.events_since r ~cursor:0 ~max_events:4 in
  let b, c2, d2 = R.events_since r ~cursor:c1 ~max_events:4 in
  let c, c3, d3 = R.events_since r ~cursor:c2 ~max_events:4 in
  Alcotest.(check int) "page 1" 4 (List.length a);
  Alcotest.(check int) "page 2" 4 (List.length b);
  Alcotest.(check int) "page 3" 2 (List.length c);
  Alcotest.(check int) "no drops while paging" 0 (d1 + d2 + d3);
  Alcotest.(check int) "final cursor" 10 c3;
  let seqs =
    List.map (fun (e : R.event) -> e.seq) (List.concat [ a; b; c ])
  in
  Alcotest.(check (list int)) "pages stitch with no gap or repeat"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] seqs

let test_event_json_shape () =
  let r = R.create ~capacity:4 ~slow_capacity:4 ~slow_threshold_s:1.0 () in
  ignore
    (R.record r ~ts_s:12.5 ~session:7 ~request_id:3 ~language:"daplex"
       ~opcode:"submit" ~latency_s:0.25 ~bytes_in:11 ~bytes_out:22
       ~outcome:(R.O_error "exec_error") ~batch:9);
  let events, _, _ = R.events_since r ~cursor:0 ~max_events:10 in
  match events with
  | [ e ] ->
    (match J.parse (R.event_json e) with
    | Error msg -> Alcotest.failf "event_json does not parse: %s" msg
    | Ok json ->
      Alcotest.(check (option int)) "session" (Some 7)
        (J.int_member "session" json);
      Alcotest.(check (option string)) "language" (Some "daplex")
        (J.str_member "language" json);
      Alcotest.(check (option string)) "outcome" (Some "error:exec_error")
        (J.str_member "outcome" json);
      Alcotest.(check (option int)) "batch" (Some 9)
        (J.int_member "batch" json))
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

(* Recording writes one slot in place: once the ring has wrapped (every
   segment allocated), 10 000 events allocate nothing. A ring of event
   records allocated 18 words an event (the option, the record, two
   float boxes). The arguments are constants, so the calls box
   nothing. *)
let test_record_allocates_nothing () =
  let r = R.create ~capacity:600 ~slow_capacity:4 ~slow_threshold_s:1.0 () in
  let record () =
    for i = 1 to 10_000 do
      ignore
        (R.record r ~ts_s:12.5 ~session:1 ~request_id:i ~language:"sql"
           ~opcode:"submit" ~latency_s:0.25 ~bytes_in:10 ~bytes_out:20
           ~outcome:R.O_ok ~batch:i)
    done
  in
  record ();
  let before = Gc.minor_words () in
  record ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words for 10 000 events" 0. words;
  let events, _, _ = R.events_since r ~cursor:(R.next_seq r - 1) ~max_events:1 in
  match events with
  | [ e ] ->
    Alcotest.(check int) "the last event's request" 10_000 e.R.request_id;
    Alcotest.(check bool) "its floats" true (e.R.ts_s = 12.5 && e.R.latency_s = 0.25)
  | _ -> Alcotest.fail "expected the last event"

(* --- the slow-query log --------------------------------------------------- *)

let test_slow_log () =
  let r = R.create ~capacity:8 ~slow_capacity:2 ~slow_threshold_s:0.1 () in
  Alcotest.(check bool) "threshold readable" true
    (R.slow_threshold_s r = 0.1);
  for i = 0 to 2 do
    ignore
      (R.record_slow r ~ts_s:1. ~session:i ~request_id:i ~language:"abdl"
         ~opcode:"submit" ~latency_s:0.2
         ~statement:(Printf.sprintf "RETRIEVE %d" i)
         ~plan:"plan: 1 disjunct\n  file scan"
         ~span:"server.request{...}")
  done;
  (* capacity 2: entry 0 was overwritten *)
  let slow, cursor, dropped = R.slow_since r ~cursor:0 ~max_events:10 in
  Alcotest.(check int) "newest two" 2 (List.length slow);
  Alcotest.(check int) "one dropped" 1 dropped;
  Alcotest.(check int) "cursor" 3 cursor;
  (match slow with
  | s :: _ ->
    Alcotest.(check string) "statement kept" "RETRIEVE 1" s.R.s_statement;
    (match J.parse (R.slow_json s) with
    | Ok json ->
      Alcotest.(check bool) "plan in json" true
        (match J.str_member "plan" json with
        | Some p -> contains p "file scan"
        | None -> false)
    | Error msg -> Alcotest.failf "slow_json does not parse: %s" msg)
  | [] -> Alcotest.fail "no slow entries")

(* --- concurrency: no torn records ----------------------------------------- *)

(* Every field of a recorded event is derived from (writer, i): if a
   drained record ever mixes two writers' fields, the check fails. The
   ring is much smaller than the write volume, so overwrites are
   constant and the reader races the writers on purpose. *)
let prop_no_torn_records =
  QCheck2.Test.make ~name:"concurrent writers never tear a record" ~count:5
    QCheck2.Gen.(pair (int_range 2 4) (int_range 8 64))
    (fun (writers, capacity) ->
      let r =
        R.create ~capacity ~slow_capacity:4 ~slow_threshold_s:10.0 ()
      in
      let per_writer = 500 in
      let stop = Atomic.make false in
      let torn = Atomic.make 0 in
      let check_events () =
        let cursor = ref 0 in
        let rec drain () =
          let events, cursor', _ = R.events_since r ~cursor:!cursor ~max_events:256 in
          cursor := cursor';
          List.iter
            (fun (e : R.event) ->
              let w = e.R.session and i = e.R.request_id in
              if
                not
                  (e.R.bytes_in = (2 * w) + (3 * i)
                  && e.R.bytes_out = w + (7 * i)
                  && e.R.batch = (w * 1000) + i
                  && e.R.ts_s = float_of_int ((w * 10000) + i))
              then Atomic.incr torn)
            events;
          if not (Atomic.get stop) then begin
            Domain.cpu_relax ();
            drain ()
          end
        in
        drain ()
      in
      let reader = Domain.spawn check_events in
      let spawned =
        List.init writers (fun w ->
            Domain.spawn (fun () ->
                for i = 0 to per_writer - 1 do
                  ignore
                    (R.record r
                       ~ts_s:(float_of_int ((w * 10000) + i))
                       ~session:w ~request_id:i ~language:"abdl"
                       ~opcode:"submit" ~latency_s:0.001
                       ~bytes_in:((2 * w) + (3 * i))
                       ~bytes_out:(w + (7 * i))
                       ~outcome:R.O_ok
                       ~batch:((w * 1000) + i))
                done))
      in
      List.iter Domain.join spawned;
      Atomic.set stop true;
      Domain.join reader;
      (* the final drain sees only fully published records too *)
      let events, _, _ = R.events_since r ~cursor:0 ~max_events:10000 in
      Alcotest.(check int) "ring full at the end"
        (Stdlib.min capacity (writers * per_writer))
        (List.length events);
      Atomic.get torn = 0)

(* A polling reader alongside a live writer: across all polls, every seq
   appears at most once, cursors never move backwards, and seen + dropped
   accounts for every seq up to the final cursor. *)
let prop_cursor_never_duplicates =
  QCheck2.Test.make ~name:"tail cursors never deliver a seq twice" ~count:5
    QCheck2.Gen.(int_range 8 64)
    (fun capacity ->
      let r =
        R.create ~capacity ~slow_capacity:4 ~slow_threshold_s:10.0 ()
      in
      let total = 2000 in
      let writer =
        Domain.spawn (fun () ->
            for i = 0 to total - 1 do
              ignore
                (R.record r ~ts_s:0. ~session:0 ~request_id:i ~language:"abdl"
                   ~opcode:"submit" ~latency_s:0. ~bytes_in:0 ~bytes_out:0
                   ~outcome:R.O_ok ~batch:0);
              if i mod 64 = 0 then Domain.cpu_relax ()
            done)
      in
      let seen = Hashtbl.create 1024 in
      let duplicates = ref 0 and backwards = ref 0 and dropped = ref 0 in
      let cursor = ref 0 in
      let rec poll () =
        let events, cursor', d = R.events_since r ~cursor:!cursor ~max_events:32 in
        if cursor' < !cursor then incr backwards;
        dropped := !dropped + d;
        List.iter
          (fun (e : R.event) ->
            if Hashtbl.mem seen e.R.seq then incr duplicates
            else Hashtbl.add seen e.R.seq ())
          events;
        cursor := cursor';
        if !cursor < total then begin
          Domain.cpu_relax ();
          poll ()
        end
      in
      poll ();
      Domain.join writer;
      (* drain the remainder now that the writer is quiet *)
      let rec finish () =
        let events, cursor', d = R.events_since r ~cursor:!cursor ~max_events:32 in
        dropped := !dropped + d;
        List.iter
          (fun (e : R.event) ->
            if Hashtbl.mem seen e.R.seq then incr duplicates
            else Hashtbl.add seen e.R.seq ())
          events;
        if cursor' > !cursor then begin
          cursor := cursor';
          finish ()
        end
      in
      finish ();
      !duplicates = 0 && !backwards = 0
      && Hashtbl.length seen + !dropped = total)

(* --- the Telemetry JSONL sink --------------------------------------------- *)

let test_telemetry_file () =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Obs.Metrics.counter "telemetry_test.requests" in
      let g = Obs.Metrics.gauge "telemetry_test.depth" in
      let sink = Obs.Telemetry.create ~path in
      Obs.Metrics.incr c;
      Obs.Metrics.set_gauge g 3.;
      Obs.Telemetry.tick sink;
      Obs.Metrics.incr c;
      Obs.Telemetry.tick sink;
      (* no change: this tick only heartbeats *)
      Obs.Telemetry.tick sink;
      Obs.Telemetry.close sink;
      let lines = ref [] in
      let ic = open_in path in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      Alcotest.(check bool) "several lines" true (List.length lines > 3);
      let parsed =
        List.map
          (fun line ->
            match J.parse line with
            | Ok json -> json
            | Error msg -> Alcotest.failf "bad JSONL line %S: %s" line msg)
          lines
      in
      (* every line carries ts and delta; our counter's deltas are the
         increments between ticks, then 0 in the final full snapshot
         (the unchanged tick in between emitted nothing) *)
      let deltas =
        List.filter_map
          (fun json ->
            match J.str_member "name" json with
            | Some "telemetry_test.requests" -> J.num_member "delta" json
            | _ -> None)
          parsed
      in
      Alcotest.(check (list (float 1e-9))) "counter deltas" [ 1.; 1.; 0. ]
        deltas;
      List.iter
        (fun json ->
          if J.member "delta" json <> None then
            Alcotest.(check bool) "delta lines carry ts" true
              (J.member "ts" json <> None))
        parsed;
      (* the close appended a full snapshot: the final occurrence of the
         counter holds the cumulative value *)
      let final =
        List.fold_left
          (fun acc json ->
            match J.str_member "name" json with
            | Some "telemetry_test.requests" -> J.num_member "value" json
            | _ -> acc)
          None parsed
      in
      Alcotest.(check (option (float 1e-9))) "final cumulative value"
        (Some 2.) final;
      (* the ticks heartbeat counted every tick *)
      let ticks =
        List.fold_left
          (fun acc json ->
            match J.str_member "name" json with
            | Some "telemetry.ticks" -> J.num_member "value" json
            | _ -> acc)
          None parsed
      in
      match ticks with
      | Some n -> Alcotest.(check bool) "three ticks" true (n >= 3.)
      | None -> Alcotest.fail "no telemetry.ticks line")

let suite =
  [
    "json values and rejects", `Quick, test_json_values;
    "json render round-trips", `Quick, test_json_render_roundtrip;
    "ring fill and drain", `Quick, test_ring_fill_and_drain;
    "ring overwrite counts dropped", `Quick, test_ring_overwrite_counts_dropped;
    "ring pages without gaps", `Quick, test_ring_max_events_pages;
    "event json shape", `Quick, test_event_json_shape;
    "record allocates nothing", `Quick, test_record_allocates_nothing;
    "slow log capacity and json", `Quick, test_slow_log;
    QCheck_alcotest.to_alcotest prop_no_torn_records;
    QCheck_alcotest.to_alcotest prop_cursor_never_duplicates;
    "telemetry jsonl sink", `Quick, test_telemetry_file;
  ]

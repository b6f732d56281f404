(* The MLDS front-end: an interactive (or scripted) language interface
   layer. The user picks a database and a data language; statements are
   translated through KMS, executed by KC against the kernel, and results
   are formatted back by KFS.

   Meta commands in the REPL (a leading '.' works like '\'):
     \databases            list databases and their models
     \lang <language>      switch language (codasyl daplex sql dli abdl)
     \db <name>            switch database
     \schema               show the current database's schema
     \log                  show the ABDL requests the last submission
                           issued, in any language (ABDL too)
     \trace on|off         print the span tree of every submission
     \stats                kernel statistics for the current database
     \metrics              process-wide metrics registry (Obs)
     \explain <stmt>       show the access plan for the selections of an
                           ABDL statement without executing it
     \save <file>          snapshot the current database (atomic)
     \load <file>          restore a snapshot (auto-replays <file>.wal)
                           and switch the session to the restored db
     \wal on|off [file]    write-ahead logging for the current database
                           (default log file: <db>.wal)
     \checkpoint <file>    durable snapshot, then truncate the WAL
     \promote              (remote) promote a warm standby to primary
     \begin                open an explicit transaction (this session)
     \commit               commit it
     \abort                roll it back
     \quit                 leave (an open transaction is aborted)

   With --connect host:port the same REPL speaks the wire protocol to a
   running mlds_server instead of a local kernel: statements, \lang/\db
   (which re-login, opening a fresh server session), the transaction
   commands, \explain, and \ping are supported; kernel-side meta
   commands are not. *)

let preload_university t backends =
  match
    Mlds.System.define_functional t ~name:"university"
      ~ddl:Daplex.University.ddl Daplex.University.rows
  with
  | Ok () ->
    if backends > 0 then
      Printf.printf
        "Loaded functional database 'university' on an MBDS with %d backends.\n"
        backends
    else print_endline "Loaded functional database 'university'."
  | Error msg -> failwith msg

let schema_text t db =
  match Mlds.System.schema_ddl t db with
  | Some ddl -> ddl
  | None -> Printf.sprintf "unknown database %S" db

type repl_state = {
  system : Mlds.System.t;
  mutable language : Mlds.System.language;
  mutable db : string;
  mutable handle : Mlds.System.handle option;
  mutable requests : Abdl.Ast.request list;
      (* the ABDL requests of the last submission, for \log *)
}

let close_current state =
  match state.handle with
  | None -> ()
  | Some h ->
    if Mlds.System.in_txn h then
      print_endline "(aborting the open transaction)";
    Mlds.System.close_handle h;
    state.handle <- None

let open_current state =
  close_current state;
  state.requests <- [];
  match Mlds.System.open_handle state.system state.language ~db:state.db with
  | Ok h ->
    state.handle <- Some h;
    Printf.printf "-- %s on %s --\n"
      (Mlds.System.language_to_string state.language)
      state.db
  | Error msg ->
    state.handle <- None;
    Printf.printf "cannot open session: %s\n" msg

let session_of state = Option.map Mlds.System.handle_session state.handle

let show_log state =
  match state.handle with
  | Some _ ->
    List.iter
      (fun r -> Printf.printf "  %s\n" (Abdl.Ast.to_string r))
      state.requests
  | None -> print_endline "  (no session)"

let show_stats state =
  match Option.map Mapping.Kernel.kds (Mlds.System.kernel_of state.system state.db) with
  | None -> Printf.printf "unknown database %S\n" state.db
  | Some (Mapping.Kernel.Single store) ->
    Printf.printf "kernel: single store %s\n" (Abdm.Store.name store);
    Printf.printf "  selections:     %d indexed, %d scanned\n"
      (Abdm.Store.indexed_selects store)
      (Abdm.Store.scanned_selects store);
    Printf.printf "  records read:   %d\n" (Abdm.Store.scan_count store);
    Printf.printf "  records held:   %d\n" (Abdm.Store.size store)
  | Some (Mapping.Kernel.Multi ctrl) ->
    Printf.printf "kernel: MBDS %s, %d backends\n"
      (Mbds.Controller.name ctrl)
      (Mbds.Controller.num_backends ctrl);
    Printf.printf "  %-8s %10s %10s %10s\n" "backend" "scanned" "written"
      "records";
    List.iteri
      (fun i (scanned, written, records) ->
        Printf.printf "  %-8d %10d %10d %10d\n" i scanned written records)
      (Mbds.Controller.backend_loads ctrl)

(* prints (and drains) the span trees recorded since the last call *)
let print_trace () =
  if Obs.Span.enabled () then
    List.iter
      (fun root -> print_string (Obs.Export.span_tree root))
      (Obs.Span.take_roots ())

let handle_meta state line =
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  (* '.trace' and '\trace' are the same command *)
  let words =
    match words with
    | w :: rest when String.length w > 1 && w.[0] = '.' ->
      ("\\" ^ String.sub w 1 (String.length w - 1)) :: rest
    | ws -> ws
  in
  match words with
  | [ "\\databases" ] ->
    List.iter
      (fun (name, model) -> Printf.printf "  %-14s %s\n" name model)
      (Mlds.System.databases state.system)
  | [ "\\lang"; lang ] ->
    begin
      match Mlds.System.language_of_string lang with
      | Some language ->
        state.language <- language;
        open_current state
      | None -> Printf.printf "unknown language %S\n" lang
    end
  | [ "\\db"; db ] ->
    state.db <- db;
    open_current state
  | [ "\\schema" ] -> print_endline (schema_text state.system state.db)
  | [ "\\currency" ] ->
    begin
      match session_of state with
      | Some (Mlds.System.S_codasyl s) ->
        print_string (Network.Currency.to_string s.Codasyl_dml.Session.cit)
      | Some _ -> print_endline "(currency indicators exist only for CODASYL-DML)"
      | None -> print_endline "(no session)"
    end
  | [ "\\log" ] -> show_log state
  | [ "\\trace"; "on" ] ->
    Obs.Span.set_enabled true;
    print_endline "tracing on"
  | [ "\\trace"; "off" ] ->
    Obs.Span.set_enabled false;
    Obs.Span.reset ();
    print_endline "tracing off"
  | [ "\\stats" ] -> show_stats state
  | [ "\\metrics" ] -> print_string (Obs.Export.metrics_table ())
  | [ "\\save"; file ] ->
    begin
      match Mlds.Persist.save state.system ~db:state.db ~file with
      | Ok () -> Printf.printf "saved %s to %s\n" state.db file
      | Error msg -> Printf.printf "save failed: %s\n" msg
    end
  | [ "\\load"; file ] ->
    begin
      match Mlds.Persist.load_report state.system ~file with
      | Ok outcome ->
        Printf.printf "loaded %s database %S from %s\n" outcome.loaded_model
          outcome.loaded_db file;
        (match outcome.recovery with
        | None -> ()
        | Some r ->
          Printf.printf
            "recovered %d frame%s from %s: %d applied, %d dropped%s\n" r.frames
            (if r.frames = 1 then "" else "s")
            r.wal_file r.applied r.dropped
            (if r.torn then " (torn tail)" else ""));
        state.db <- outcome.loaded_db;
        open_current state
      | Error msg -> Printf.printf "load failed: %s\n" msg
    end
  | [ "\\wal" ] ->
    begin
      match Mlds.System.wal_of state.system ~db:state.db with
      | Some wal ->
        Printf.printf "WAL on: %s (%d frames appended, fsync %s)\n"
          (Mlds.Wal.path wal) (Mlds.Wal.appended wal)
          (if Mlds.Wal.fsync_enabled wal then "on" else "off")
      | None -> print_endline "WAL off"
    end
  | [ "\\wal"; "on" ] | [ "\\wal"; "on"; _ ] ->
    let file =
      match words with [ _; _; f ] -> f | _ -> state.db ^ ".wal"
    in
    begin
      match Mlds.System.attach_wal state.system ~db:state.db ~file with
      | Ok _ -> Printf.printf "WAL on: logging %s to %s\n" state.db file
      | Error msg -> Printf.printf "cannot attach WAL: %s\n" msg
    end
  | [ "\\wal"; "off" ] ->
    Mlds.System.detach_wal state.system ~db:state.db;
    print_endline "WAL off"
  | [ ("\\begin" | "\\commit" | "\\abort") as op ] ->
    begin
      match state.handle with
      | None -> print_endline "no session open (try \\lang / \\db)"
      | Some h ->
        let result, done_msg =
          match op with
          | "\\begin" -> Mlds.System.begin_txn h, "transaction started"
          | "\\commit" -> Mlds.System.commit_txn h, "transaction committed"
          | _ -> Mlds.System.abort_txn h, "transaction aborted"
        in
        (match result with
        | Ok () -> print_endline done_msg
        | Error e -> print_endline (Mlds.System.handle_error_to_string e))
    end
  | "\\explain" :: _ :: _ ->
    (* the statement is the raw remainder of the line, not the split
       words — ABDL is whitespace-sensitive inside string literals *)
    let i = String.index line ' ' in
    let src = String.trim (String.sub line i (String.length line - i)) in
    begin
      match state.handle with
      | None -> print_endline "no session open (try \\lang / \\db)"
      | Some h ->
        (match Mlds.System.explain_handle h src with
        | Ok out -> print_endline out
        | Error (Mlds.System.H_parse msg) ->
          Printf.printf "parse error: %s\n" msg
        | Error e -> print_endline (Mlds.System.handle_error_to_string e))
    end
  | [ "\\explain" ] ->
    print_endline
      "usage: \\explain <ABDL statement>   (plans its selections without \
       running them)"
  | [ "\\checkpoint"; file ] ->
    begin
      match Mlds.Persist.checkpoint state.system ~db:state.db ~file with
      | Ok () ->
        Printf.printf "checkpointed %s to %s%s\n" state.db file
          (match Mlds.System.wal_of state.system ~db:state.db with
          | Some _ -> " (WAL truncated)"
          | None -> "")
      | Error msg -> Printf.printf "checkpoint failed: %s\n" msg
    end
  | _ -> Printf.printf "unknown meta command: %s\n" line

(* a PERFORM UNTIL EOF block continues across lines until END PERFORM *)
let read_block first =
  let upper = String.uppercase_ascii in
  let opens line =
    let u = upper (String.trim line) in
    String.length u >= 7 && String.sub u 0 7 = "PERFORM"
  in
  let closes line = upper (String.trim line) = "END PERFORM" in
  if not (opens first) then first
  else begin
    let buf = Buffer.create 128 in
    Buffer.add_string buf first;
    let rec collect depth =
      if depth = 0 then ()
      else begin
        Printf.printf "...> ";
        match read_line () with
        | exception End_of_file -> ()
        | line ->
          Buffer.add_char buf '\n';
          Buffer.add_string buf line;
          if opens line then collect (depth + 1)
          else if closes line then collect (depth - 1)
          else collect depth
      end
    in
    collect 1;
    Buffer.contents buf
  end

let repl_loop state =
  let rec loop () =
    Printf.printf "%s@%s> "
      (Mlds.System.language_to_string state.language)
      state.db;
    match read_line () with
    (* \quit aborts any open transaction: leaving must never strand a
       half-done transaction over the kernel *)
    | exception End_of_file -> close_current state
    | "\\quit" | "\\q" | ".quit" | ".q" -> close_current state
    | "" -> loop ()
    | line when line.[0] = '\\' || line.[0] = '.' ->
      handle_meta state line;
      loop ()
    | first ->
      let line = read_block first in
      begin
        match state.handle with
        | None -> print_endline "no session open (try \\lang / \\db)"
        | Some handle ->
          let submit () = Mlds.System.submit_handle handle line in
          let result, requests =
            match Mlds.System.kernel_of state.system state.db with
            | Some kernel -> Mapping.Kernel.collect kernel submit
            | None -> submit (), []
          in
          state.requests <- requests;
          begin
            match result with
            | Ok out -> print_endline out
            | Error (Mlds.System.H_parse msg) ->
              Printf.printf "parse error: %s\n" msg
            | Error e ->
              print_endline (Mlds.System.handle_error_to_string e)
          end;
          print_trace ()
      end;
      loop ()
  in
  loop ()

(* --- remote mode (--connect): the same REPL over the wire protocol ------ *)

type remote_state = {
  client : Client.t;
  mutable r_lang : string;
  mutable r_db : string;
  mutable r_txn : bool;  (* an explicit transaction is open server-side *)
}

let remote_print_error err =
  match err with
  | `Refused (Server.Wire.Parse_error, msg) ->
    Printf.printf "parse error: %s\n" msg
  | `Overloaded -> print_endline "server overloaded: retry in a moment"
  | e -> print_endline (Client.error_to_string e)

let remote_login state =
  match
    Client.login state.client ~language:state.r_lang ~db:state.r_db ()
  with
  | Ok id ->
    Printf.printf "-- %s on %s (server session %d) --\n" state.r_lang
      state.r_db id
  | Error e ->
    print_endline "cannot open session:";
    remote_print_error e

let remote_relogin state =
  (match Client.session_id state.client with
  | Some _ -> (match Client.logout state.client with _ -> ())
  | None -> ());
  state.r_txn <- false;
  remote_login state

let handle_remote_meta state line =
  let words = String.split_on_char ' ' line |> List.filter (fun w -> w <> "") in
  let words =
    match words with
    | w :: rest when String.length w > 1 && w.[0] = '.' ->
      ("\\" ^ String.sub w 1 (String.length w - 1)) :: rest
    | ws -> ws
  in
  match words with
  | [ "\\lang"; lang ] ->
    state.r_lang <- lang;
    remote_relogin state
  | [ "\\db"; db ] ->
    state.r_db <- db;
    remote_relogin state
  | [ ("\\begin" | "\\commit" | "\\abort") as op ] ->
    let call, done_msg, opens =
      match op with
      | "\\begin" -> Client.begin_txn, "transaction started", true
      | "\\commit" -> Client.commit_txn, "transaction committed", false
      | _ -> Client.abort_txn, "transaction aborted", false
    in
    (match call state.client with
    | Ok () ->
      state.r_txn <- opens;
      print_endline done_msg
    | Error e -> remote_print_error e)
  | [ "\\ping" ] ->
    (match Client.ping state.client with
    | Ok () -> print_endline "pong"
    | Error e -> remote_print_error e)
  | [ "\\stats" ] ->
    (match Client.stats state.client with
    | Ok out -> print_endline out
    | Error e -> remote_print_error e)
  | [ "\\checkpoint" ] ->
    (* remote form takes no file argument: the snapshot path is the
       server's --checkpoint (or <wal>.snapshot); the call blocks until
       the checkpoint is durable *)
    (match Client.checkpoint state.client with
    | Ok out -> print_endline out
    | Error e -> remote_print_error e)
  | [ "\\promote" ] ->
    (* promote a warm standby to primary: it finishes applying the
       replicated stream, seals its log, and starts accepting writes *)
    (match Client.promote state.client with
    | Ok out -> print_endline out
    | Error e -> remote_print_error e)
  | "\\tail" :: rest ->
    let cursor, slow_cursor =
      match rest with
      | [ c; s ] ->
        ( Option.value ~default:0 (int_of_string_opt c),
          Option.value ~default:0 (int_of_string_opt s) )
      | [ c ] -> (Option.value ~default:0 (int_of_string_opt c), 0)
      | _ -> (0, 0)
    in
    (match Client.tail state.client ~cursor ~slow_cursor () with
    | Ok out -> print_endline out
    | Error e -> remote_print_error e)
  | "\\explain" :: _ :: _ ->
    let i = String.index line ' ' in
    let src = String.trim (String.sub line i (String.length line - i)) in
    (match Client.explain state.client src with
    | Ok out -> print_endline out
    | Error e -> remote_print_error e)
  | [ "\\explain" ] ->
    print_endline
      "usage: \\explain <ABDL statement>   (plans its selections without \
       running them)"
  | _ ->
    Printf.printf
      "unsupported over --connect: %s (server-side state is reachable \
       through statements only)\n"
      line

let remote_repl_loop state =
  let rec loop () =
    Printf.printf "%s@%s[remote]> " state.r_lang state.r_db;
    match read_line () with
    | exception End_of_file -> quit ()
    | "\\quit" | "\\q" | ".quit" | ".q" -> quit ()
    | "" -> loop ()
    | line when line.[0] = '\\' || line.[0] = '.' ->
      handle_remote_meta state line;
      loop ()
    | first ->
      let line = read_block first in
      (match Client.submit state.client line with
      | Ok out -> print_endline out
      | Error e -> remote_print_error e);
      loop ()
  and quit () =
    (* disconnect aborts server-side, but leave politely anyway *)
    if state.r_txn then begin
      print_endline "(aborting the open transaction)";
      match Client.abort_txn state.client with _ -> ()
    end;
    Client.close state.client
  in
  loop ()

let run_remote addr lang db =
  match String.split_on_char ':' addr with
  | [ host; port ] when int_of_string_opt port <> None ->
    let port = int_of_string port in
    let host = if host = "" then "127.0.0.1" else host in
    (match Client.connect ~host ~port () with
    | Error msg ->
      prerr_endline msg;
      1
    | Ok client ->
      let state = { client; r_lang = lang; r_db = db; r_txn = false } in
      remote_login state;
      print_endline "MLDS remote interface; \\quit to leave.";
      remote_repl_loop state;
      0)
  | _ ->
    prerr_endline ("--connect expects host:port, got " ^ addr);
    1

(* --- cmdliner ----------------------------------------------------------- *)

open Cmdliner

let backends_arg =
  let doc = "Run the kernel as an MBDS with $(docv) backends (0 = single store)." in
  Arg.(value & opt int 0 & info [ "backends" ] ~docv:"N" ~doc)

let trace_arg =
  let doc = "Enable tracing from the start (as if .trace on was typed)." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let skew_arg =
  let doc =
    "Route fraction $(docv) of the records to backend 0 (skewed placement \
     ablation); the default is balanced round-robin."
  in
  Arg.(value & opt (some float) None & info [ "skew" ] ~docv:"F" ~doc)

let lang_arg =
  let doc = "Data language: codasyl, daplex, sql, dli, or abdl." in
  Arg.(value & opt string "codasyl" & info [ "lang" ] ~docv:"LANG" ~doc)

let db_arg =
  let doc = "Target database name." in
  Arg.(value & opt string "university" & info [ "db" ] ~docv:"DB" ~doc)

let fresh_arg =
  let doc =
    "Start with no database preloaded (restore one with \\\\load instead)."
  in
  Arg.(value & flag & info [ "fresh" ] ~doc)

let file_arg =
  let doc = "Transaction script to execute." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let with_system backends trace skew fresh lang db k =
  let placement =
    Option.map (fun f -> Mbds.Controller.Skewed f) skew
  in
  let t = Mlds.System.create ~backends ?placement () in
  if not fresh then preload_university t backends;
  (* enabled only after the load, so the first trace is the user's own
     transaction rather than thousands of loader inserts *)
  Obs.Span.set_enabled trace;
  match Mlds.System.language_of_string lang with
  | None ->
    prerr_endline ("unknown language: " ^ lang);
    1
  | Some language -> k t language db

let connect_arg =
  let doc =
    "Attach to a running mlds_server at $(docv) instead of a local kernel."
  in
  Arg.(
    value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT" ~doc)

let repl_cmd =
  let run backends trace skew fresh lang db connect =
    match connect with
    | Some addr -> run_remote addr lang db
    | None ->
      with_system backends trace skew fresh lang db
        (fun t language db ->
          let state =
            { system = t; language; db; handle = None; requests = [] }
          in
          open_current state;
          print_endline "MLDS interactive interface; \\quit to leave.";
          repl_loop state;
          0)
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive MLDS session (local or --connect)")
    Term.(
      const run $ backends_arg $ trace_arg $ skew_arg
      $ fresh_arg $ lang_arg $ db_arg $ connect_arg)

let exec_cmd =
  let run backends trace skew fresh lang db file =
    with_system backends trace skew fresh lang db
      (fun t language db ->
        match Mlds.System.open_handle t language ~db with
        | Error msg ->
          prerr_endline msg;
          1
        | Ok handle ->
          let ic = open_in file in
          let n = in_channel_length ic in
          let src = really_input_string ic n in
          close_in ic;
          (* a fresh handle outside any transaction can only fail to parse *)
          match Mlds.System.submit_handle handle src with
          | Ok out ->
            print_endline out;
            print_trace ();
            0
          | Error e ->
            prerr_endline
              ("parse error: " ^ Mlds.System.handle_error_to_string e);
            print_trace ();
            1)
  in
  Cmd.v
    (Cmd.info "exec" ~doc:"Execute a transaction script against MLDS")
    Term.(
      const run $ backends_arg $ trace_arg $ skew_arg
      $ fresh_arg $ lang_arg $ db_arg $ file_arg)

let demo_cmd =
  let run backends trace skew =
    with_system backends trace skew false "codasyl" "university"
      (fun t _ _ ->
        let show lang db src =
          Printf.printf "\n[%s on %s]\n%s\n"
            (Mlds.System.language_to_string lang)
            db src;
          match Mlds.System.open_handle t lang ~db with
          | Error msg ->
            print_endline msg;
            1
          | Ok handle ->
            (match Mlds.System.submit_handle handle src with
             | Ok out -> print_endline out
             | Error e ->
               print_endline
                 ("parse error: " ^ Mlds.System.handle_error_to_string e));
            print_trace ();
            0
        in
        let _ =
          show Mlds.System.L_codasyl "university"
            "MOVE 'Advanced Database' TO title IN course\nFIND ANY course USING title IN course\nGET course"
        in
        let _ =
          show Mlds.System.L_daplex "university"
            "FOR EACH s IN student SUCH THAT major(s) = 'Computer Science' PRINT name(s), name(advisor(s)) END"
        in
        let _ =
          show Mlds.System.L_abdl "university"
            "RETRIEVE ((FILE = employee)) (AVG(salary))"
        in
        0)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a short multi-lingual demonstration")
    Term.(const run $ backends_arg $ trace_arg $ skew_arg)

let main_cmd =
  let doc = "The Multi-Lingual Database System (MLDS)" in
  Cmd.group
    (Cmd.info "mlds" ~version:"1.0.0" ~doc)
    [ repl_cmd; exec_cmd; demo_cmd ]

let () = exit (Cmd.eval' main_cmd)

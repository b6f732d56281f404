let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* recovery progress: how many WAL frames replay has pushed through the
   kernel and how fast — sampled by the telemetry plane mid-replay, so a
   long startup (or a standby's continuous replay) is visible instead of
   a silent stall *)
let c_replayed = Obs.Metrics.counter "recover.frames_replayed"

let g_replay_rate = Obs.Metrics.gauge "recover.frames_per_s"

(* --- the snapshot writer (format v3) ----------------------------------- *)

let kernel_line (spec : System.kernel_spec) =
  if spec.System.spec_backends = 0 then "%KERNEL backends=0"
  else
    let placement =
      match spec.System.spec_placement with
      | None | Some Mbds.Controller.Round_robin -> "round-robin"
      | Some (Mbds.Controller.Skewed fraction) ->
        (* %h: hex float, so the skew fraction round-trips exactly *)
        Printf.sprintf "skewed:%h" fraction
    in
    Printf.sprintf "%%KERNEL backends=%d placement=%s"
      spec.System.spec_backends placement

(* The first line, which the checksum does not cover. *)
let magic = "%MLDS 3\n"

(* The last line: "%CRC <8 hex>\n" over every byte between it and
   [magic]. *)
let trailer_length = String.length "%CRC 00000000\n"

let chunk_bytes = 65536

(* One writer for every snapshot: bytes gather in a fixed chunk, which
   goes to [emit] whenever it fills, and the CRC runs over the body as
   it passes, so a snapshot is never held whole. The seal is a trailer,
   so the output is append-only. *)
type writer = {
  chunk : Bytes.t;
  mutable fill : int;
  mutable summed : int;  (* chunk bytes [0, summed) are in [crc] already *)
  mutable crc : int;  (* of the body so far *)
  line : Buffer.t;  (* the piece being serialized *)
  emit : bytes -> int -> int -> unit;
}

let sum w =
  w.crc <- Wal.crc32_update w.crc w.chunk ~pos:w.summed ~len:(w.fill - w.summed);
  w.summed <- w.fill

let flush w =
  sum w;
  w.emit w.chunk 0 w.fill;
  w.fill <- 0;
  w.summed <- 0

(* [w.line] into the chunk, and empties it *)
let add_line w =
  let len = Buffer.length w.line in
  let off = ref 0 in
  while !off < len do
    if w.fill = chunk_bytes then flush w;
    let n = Int.min (len - !off) (chunk_bytes - w.fill) in
    Buffer.blit w.line !off w.chunk w.fill n;
    w.fill <- w.fill + n;
    off := !off + n
  done;
  Buffer.clear w.line

let seal w =
  sum w;
  if w.fill + trailer_length > chunk_bytes then flush w;
  let trailer = Printf.sprintf "%%CRC %08x\n" w.crc in
  Bytes.blit_string trailer 0 w.chunk w.fill trailer_length;
  w.emit w.chunk 0 (w.fill + trailer_length);
  w.fill <- 0;
  w.summed <- 0

type source = {
  src_model : string;
  src_ddl : string;
  src_kernel : Mapping.Kernel.t;
  src_spec : System.kernel_spec;
}

let source t ~db =
  let* model =
    match List.assoc_opt db (System.databases t) with
    | Some model -> Ok model
    | None -> err "unknown database %S" db
  in
  let* ddl =
    match System.schema_ddl t db with
    | Some ddl -> Ok ddl
    | None -> err "no schema for %S" db
  in
  let* kernel =
    match System.kernel_of t db with
    | Some kernel -> Ok kernel
    | None -> err "no kernel for %S" db
  in
  let* spec =
    match System.kernel_spec_of t db with
    | Some spec -> Ok spec
    | None -> err "no kernel for %S" db
  in
  Ok { src_model = model; src_ddl = ddl; src_kernel = kernel; src_spec = spec }

(* A writer with [magic] and everything down to %DATA written. *)
let start ?stamp ~db src emit =
  let w =
    {
      chunk = Bytes.create chunk_bytes;
      fill = String.length magic;
      summed = String.length magic;
      crc = 0;
      line = Buffer.create 256;
      emit;
    }
  in
  Bytes.blit_string magic 0 w.chunk 0 w.fill;
  let buf = w.line in
  Buffer.add_string buf (Printf.sprintf "%%MODEL %s\n" src.src_model);
  Buffer.add_string buf (Printf.sprintf "%%NAME %s\n" db);
  Buffer.add_string buf (kernel_line src.src_spec);
  Buffer.add_char buf '\n';
  (* the crash-window stamp: which WAL (generation) and how much of it
     (byte position) this snapshot already covers *)
  (match stamp with
  | Some (g, p) ->
    Buffer.add_string buf (Printf.sprintf "%%WAL gen=%d pos=%d\n" g p)
  | None -> ());
  Buffer.add_string buf "%DDL\n";
  Buffer.add_string buf (String.trim src.src_ddl);
  Buffer.add_string buf "\n%DATA\n";
  add_line w;
  w

(* "@<key> INSERT (...)": records are walked in database-key order, so
   the dump is a deterministic function of the state, and keyed restore
   reproduces the keys — dump ∘ restore ∘ dump is byte-identical. A
   string or text may hold a newline: the reader splits records only at
   newlines outside quotes. *)
let add_record w (key, record) =
  let buf = w.line in
  Buffer.add_char buf '@';
  Buffer.add_string buf (string_of_int key);
  Buffer.add_char buf ' ';
  Abdl.Ast.to_buffer buf (Abdl.Ast.Insert record);
  Buffer.add_char buf '\n';
  add_line w

let dump ?stamp t ~db =
  let* src = source t ~db in
  (* about 100 bytes a record: most dumps never regrow the buffer *)
  let out = Buffer.create (4096 + (128 * Mapping.Kernel.size src.src_kernel)) in
  let w = start ?stamp ~db src (Buffer.add_subbytes out) in
  Seq.iter (add_record w) (Mapping.Kernel.to_seq src.src_kernel);
  seal w;
  Ok (Buffer.contents out)

(* --- parse --------------------------------------------------------------- *)

type data_line =
  | D_keyed of Abdm.Store.dbkey * string  (* "@<key> INSERT ..." *)
  | D_fresh of string  (* legacy v1: bare INSERT, restored under a new key *)

type sections = {
  model : string;
  db_name : string;
  kernel_spec : System.kernel_spec option;
  wal_stamp : (int * int) option;  (* %WAL gen=<g> pos=<p> *)
  ddl : string;
  data : data_line list;
}

let parse_kernel_words words =
  let field key =
    let prefix = key ^ "=" in
    List.find_map
      (fun w ->
        if String.starts_with ~prefix w then
          Some (String.sub w (String.length prefix)
                  (String.length w - String.length prefix))
        else None)
      words
  in
  let* backends =
    match Option.bind (field "backends") int_of_string_opt with
    | Some n when n >= 0 -> Ok n
    | _ -> err "bad %%KERNEL line (backends)"
  in
  let* placement =
    match field "placement" with
    | None | Some "round-robin" -> Ok None
    | Some p when String.starts_with ~prefix:"skewed:" p ->
      let frac = String.sub p 7 (String.length p - 7) in
      begin
        match float_of_string_opt frac with
        | Some f -> Ok (Some (Mbds.Controller.Skewed f))
        | None -> err "bad %%KERNEL skew fraction %S" frac
      end
    | Some other -> err "bad %%KERNEL placement %S" other
  in
  (* older snapshots also carry parallel=B: ignored like any unknown field *)
  Ok { System.spec_backends = backends; spec_placement = placement }

let parse_data_line trimmed =
  if String.length trimmed > 1 && trimmed.[0] = '@' then
    match String.index_opt trimmed ' ' with
    | None -> err "bad data line %S" trimmed
    | Some sp ->
      match int_of_string_opt (String.sub trimmed 1 (sp - 1)) with
      | None -> err "bad database key in data line %S" trimmed
      | Some key ->
        Ok
          (D_keyed
             ( key,
               String.sub trimmed (sp + 1) (String.length trimmed - sp - 1) ))
  else Ok (D_fresh trimmed)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let checksum_ok text ~pos ~stop ~stored =
  Wal.crc32_bytes (Bytes.unsafe_of_string text) ~pos ~len:(stop - pos) = stored

let mismatch () = err "save file checksum mismatch (corrupt or truncated)"

(* The [pos, stop) range of lines after the checked header, or why
   [text] is not an intact save file. *)
let checked_body text =
  let len = String.length text in
  let line_end from =
    match String.index_from_opt text from '\n' with Some i -> i | None -> len
  in
  let first_end = line_end 0 in
  let body = min len (first_end + 1) in
  match String.trim (String.sub text 0 first_end) with
  | "%MLDS 1" -> Ok (body, len)
  | "%MLDS 2" ->
    (* the %CRC header covers every byte after its own line *)
    let crc_end = line_end body in
    let* stored =
      match
        String.split_on_char ' ' (String.trim (String.sub text body (crc_end - body)))
        |> List.filter (fun w -> w <> "")
      with
      | [ "%CRC"; hex ] ->
        (match int_of_string_opt ("0x" ^ hex) with
        | Some crc -> Ok crc
        | None -> err "bad %%CRC header %S" hex)
      | _ -> err "missing %%CRC header in a v2 save file"
    in
    let pos = min len (crc_end + 1) in
    if checksum_ok text ~pos ~stop:len ~stored then Ok (pos, len)
    else mismatch ()
  | "%MLDS 3" ->
    (* the %CRC trailer is the last line and covers every byte between
       it and the first: a file cut anywhere has no intact trailer *)
    let at = len - trailer_length in
    let intact =
      at > body
      && text.[at - 1] = '\n'
      && String.sub text at 5 = "%CRC "
      && text.[len - 1] = '\n'
      && String.for_all is_hex (String.sub text (at + 5) 8)
    in
    if not intact then mismatch ()
    else
      let stored = int_of_string ("0x" ^ String.sub text (at + 5) 8) in
      if checksum_ok text ~pos:body ~stop:at ~stored then Ok (body, at)
      else mismatch ()
  | _ -> err "not an MLDS save file (missing %%MLDS header)"

(* Where the data record starting at [pos] ends: the first newline
   outside a quoted literal (a quote inside one is doubled, which leaves
   the count even), so a string value or text may hold a newline. *)
let record_end text pos stop =
  let rec go i quoted =
    if i >= stop then stop
    else
      match String.unsafe_get text i with
      | '\'' -> go (i + 1) (not quoted)
      | '\n' when not quoted -> i
      | _ -> go (i + 1) quoted
  in
  go pos false

let parse_sections text =
  let* pos, stop = checked_body text in
  let model = ref None in
  let db_name = ref None in
  let kernel_spec = ref None in
  let wal_stamp = ref None in
  let ddl = Buffer.create 1024 in
  let data = ref [] in
  let bad = ref None in
  let section = ref `Header in
  let line_at pos =
    if !section = `Data then record_end text pos stop
    else
      match String.index_from_opt text pos '\n' with
      | Some i when i < stop -> i
      | _ -> stop
  in
  let rec walk pos =
    if pos < stop then begin
      let eol = line_at pos in
      let line = String.sub text pos (eol - pos) in
      let trimmed = String.trim line in
      if String.equal trimmed "%DDL" then section := `Ddl
      else if String.equal trimmed "%DATA" then section := `Data
      else begin
        match !section with
        | `Header ->
          let words =
            String.split_on_char ' ' trimmed |> List.filter (fun w -> w <> "")
          in
          begin
            match words with
            | [ "%MODEL"; m ] -> model := Some m
            | [ "%NAME"; n ] -> db_name := Some n
            | "%KERNEL" :: rest ->
              (match parse_kernel_words rest with
              | Ok spec -> kernel_spec := Some spec
              | Error msg -> if !bad = None then bad := Some msg)
            | "%WAL" :: rest ->
              let field key =
                let prefix = key ^ "=" in
                List.find_map
                  (fun w ->
                    if String.starts_with ~prefix w then
                      int_of_string_opt
                        (String.sub w (String.length prefix)
                           (String.length w - String.length prefix))
                    else None)
                  rest
              in
              (match field "gen", field "pos" with
              | Some g, Some p -> wal_stamp := Some (g, p)
              | _ -> if !bad = None then bad := Some "bad %WAL header")
            | _ -> ()
          end
        | `Ddl ->
          Buffer.add_string ddl line;
          Buffer.add_char ddl '\n'
        | `Data ->
          if not (String.equal trimmed "") then
            match parse_data_line trimmed with
            | Ok d -> data := d :: !data
            | Error msg -> if !bad = None then bad := Some msg
      end;
      walk (eol + 1)
    end
  in
  walk pos;
  match !bad, !model, !db_name with
  | Some msg, _, _ -> Error msg
  | None, None, _ -> err "missing %%MODEL header"
  | None, Some _, None -> err "missing %%NAME header"
  | None, Some model, Some db_name ->
    Ok
      {
        model;
        db_name;
        kernel_spec = !kernel_spec;
        wal_stamp = !wal_stamp;
        ddl = Buffer.contents ddl;
        data = List.rev !data;
      }

(* --- restore -------------------------------------------------------------- *)

let restore_parsed t s =
  let kernel = s.kernel_spec in
  let* () =
    match s.model with
    | "functional" ->
      System.define_functional ?kernel t ~name:s.db_name ~ddl:s.ddl []
    | "network" -> System.define_network ?kernel t ~name:s.db_name ~ddl:s.ddl
    | "hierarchical" ->
      System.define_hierarchical ?kernel t ~name:s.db_name ~ddl:s.ddl
    | "relational" ->
      let* () = System.define_relational ?kernel t ~name:s.db_name in
      (* replay the CREATE TABLE statements through a SQL session *)
      begin
        match System.open_session t System.L_sql ~db:s.db_name with
        | Error msg -> Error msg
        | Ok session ->
          if String.trim s.ddl = "(no tables yet)" || String.trim s.ddl = ""
          then Ok ()
          else
            match System.submit session s.ddl with
            | Ok _ -> Ok ()
            | Error msg -> err "replaying relational DDL: %s" msg
      end
    | other -> err "unknown data model %S in save file" other
  in
  let* k =
    match System.kernel_of t s.db_name with
    | Some kernel -> Ok kernel
    | None -> err "no kernel for restored database"
  in
  let insert_line key line =
    match Abdl.Parser.request line with
    | Abdl.Ast.Insert record ->
      begin
        match key with
        | Some key -> Mapping.Kernel.insert_keyed k key record
        | None -> ignore (Mapping.Kernel.insert k record)
      end;
      Ok ()
    | _ -> err "save file data section holds a non-INSERT request: %s" line
    | exception Abdl.Parser.Parse_error msg ->
      err "bad data line %S: %s" line msg
    | exception Invalid_argument msg ->
      err "duplicate database key in save file: %s" msg
  in
  List.fold_left
    (fun acc d ->
      let* () = acc in
      match d with
      | D_keyed (key, line) -> insert_line (Some key) line
      | D_fresh line -> insert_line None line)
    (Ok ()) s.data

let restore t ~text =
  let* s = parse_sections text in
  restore_parsed t s

(* Restore a snapshot's records into a database that may already be
   live — the standby's re-bootstrap path: the primary truncated past
   the standby's position, so the standby's current contents are
   replaced wholesale by the fresh snapshot. When the database is not
   defined yet this is an ordinary restore; when it is, the schema is
   assumed unchanged (same primary) and only the data is swapped. *)
let restore_data t ~db ~text =
  let* s = parse_sections text in
  if not (String.equal s.db_name db) then
    err "snapshot is for database %S, expected %S" s.db_name db
  else
    match System.kernel_of t db with
    | None -> restore_parsed t s
    | Some kernel ->
      (* dropping + re-inserting is state surgery, not workload: silence
         any attached WAL hook so nothing is logged *)
      let saved_hook = Mapping.Kernel.wal_hook kernel in
      Mapping.Kernel.set_wal_hook kernel None;
      Fun.protect
        ~finally:(fun () -> Mapping.Kernel.set_wal_hook kernel saved_hook)
        (fun () ->
          ignore (Mapping.Kernel.delete kernel Abdm.Query.always);
          let insert_line key line =
            match Abdl.Parser.request line with
            | Abdl.Ast.Insert record ->
              begin
                match key with
                | Some key -> Mapping.Kernel.insert_keyed kernel key record
                | None -> ignore (Mapping.Kernel.insert kernel record)
              end;
              Ok ()
            | _ -> err "snapshot data section holds a non-INSERT: %s" line
            | exception Abdl.Parser.Parse_error msg ->
              err "bad data line %S: %s" line msg
            | exception Invalid_argument msg ->
              err "duplicate database key in snapshot: %s" msg
          in
          List.fold_left
            (fun acc d ->
              let* () = acc in
              match d with
              | D_keyed (key, line) -> insert_line (Some key) line
              | D_fresh line -> insert_line None line)
            (Ok ()) s.data)

(* --- WAL replay and recovery --------------------------------------------- *)

type recovery_report = {
  wal_file : string;
  frames : int;
  torn : bool;
  applied : int;
  dropped : int;
  skipped : int;
  trim_failed : bool;
}

let is_mutation = function
  | Wal.Begin | Wal.Commit | Wal.Abort | Wal.Generation _ -> false
  | _ -> true

let mutations entries = List.length (List.filter is_mutation entries)

let apply_wal ?(on_entry = ignore) kernel ~txn entries =
  let applied = ref 0 and dropped = ref 0 in
  (* a keyed insert over a live key or a replace of a dead one no longer
     applies: dropped *)
  let apply = function
    | Wal.Keyed_insert (key, record) -> (
      match Mapping.Kernel.insert_keyed kernel key record with
      | () -> incr applied
      | exception Invalid_argument _ -> incr dropped)
    | Wal.Replace (key, record) -> (
      match Mapping.Kernel.replace kernel key record with
      | () -> incr applied
      | exception Not_found -> incr dropped)
    | Wal.Request (Abdl.Ast.Insert record) ->
      ignore (Mapping.Kernel.insert kernel record);
      incr applied
    | Wal.Request (Abdl.Ast.Delete query) ->
      ignore (Mapping.Kernel.delete kernel query);
      incr applied
    | Wal.Request (Abdl.Ast.Update (query, mods)) ->
      ignore (Mapping.Kernel.update kernel query mods);
      incr applied
    | Wal.Request _ | Wal.Begin | Wal.Commit | Wal.Abort | Wal.Generation _ ->
      ()
  in
  List.iter
    (fun entry ->
      on_entry ();
      match entry, !txn with
      | Wal.Begin, None -> txn := Some []
      | Wal.Begin, Some _ -> ()
      | Wal.Commit, Some pending ->
        List.iter apply (List.rev pending);
        txn := None
      | Wal.Abort, Some pending ->
        dropped := !dropped + mutations pending;
        txn := None
      | (Wal.Commit | Wal.Abort), None -> ()
      | e, Some pending -> txn := Some (e :: pending)
      | e, None -> apply e)
    entries;
  !applied, !dropped

let replay_wal ?skip ?(trim = false) t ~db ~file =
  match System.kernel_of t db with
  | None -> err "unknown database %S" db
  | Some kernel ->
    Obs.Span.with_span "mlds.recover"
      ~attrs:(fun () -> [ "db", db ])
      (fun () ->
        let r = Wal.recover ~trim ?skip file in
        (* replay must not re-log: silence any attached WAL hook *)
        let saved_hook = Mapping.Kernel.wal_hook kernel in
        Mapping.Kernel.set_wal_hook kernel None;
        Fun.protect
          ~finally:(fun () -> Mapping.Kernel.set_wal_hook kernel saved_hook)
          (fun () ->
            let t0 = Obs.Clock.now_s () in
            let seen = ref 0 in
            let publish_rate () =
              let dt = Obs.Clock.since t0 in
              if dt > 0. then
                Obs.Metrics.set_gauge g_replay_rate (float_of_int !seen /. dt)
            in
            let on_entry () =
              incr seen;
              Obs.Metrics.incr c_replayed;
              if !seen land 8191 = 0 then publish_rate ()
            in
            let txn = ref None in
            let applied, dropped = apply_wal ~on_entry kernel ~txn r.entries in
            (* the log ends here: an unterminated transaction never commits *)
            let dropped =
              dropped + Option.fold ~none:0 ~some:mutations !txn
            in
            if !seen > 0 then publish_rate ();
            Ok
              {
                wal_file = file;
                frames = r.Wal.frames;
                torn = r.Wal.torn;
                applied;
                dropped;
                skipped = r.Wal.skipped;
                trim_failed = r.Wal.trim_failed;
              }))

(* --- load ----------------------------------------------------------------- *)

type load_outcome = {
  loaded_db : string;
  loaded_model : string;
  recovery : recovery_report option;
}

let read_file file =
  try Ok (In_channel.with_open_bin file In_channel.input_all)
  with Sys_error msg -> Error msg

let load_report t ~file =
  let* text = read_file file in
  let* s = parse_sections text in
  let* () = restore_parsed t s in
  let wal_file = file ^ ".wal" in
  let* recovery =
    if Sys.file_exists wal_file then
      (* the snapshot's %WAL stamp closes the checkpoint crash window:
         frames it already covers are skipped, not double-applied. A torn
         tail is trimmed so post-recovery appends stay reachable. *)
      let* report =
        replay_wal ?skip:s.wal_stamp ~trim:true t ~db:s.db_name ~file:wal_file
      in
      Ok (Some report)
    else Ok None
  in
  Ok { loaded_db = s.db_name; loaded_model = s.model; recovery }

let load t ~file =
  let* _outcome = load_report t ~file in
  Ok ()

(* --- save and checkpoint ------------------------------------------------ *)

let io_message e op path = Printf.sprintf "%s %s: %s" op path (Unix.error_message e)

(* An in-flight snapshot to a file. [checkpoint_begin] captures the
   state — header, DDL, the key-ordered record sequence, and the WAL's
   (generation, position) stamp — at one instant behind the caller's
   write barrier. Records are immutable values behind immutable maps, so
   later mutations replace bindings without disturbing the captured
   sequence: [checkpoint_slice] serializes it in bounded steps, each
   full chunk going straight to the temp file of [Fs.replace]'s
   protocol, while writes keep flowing, and the snapshot is still the
   exact state at capture time. *)
type ckpt = {
  ck_wal : Wal.t option;
  ck_stamp : (int * int) option;
  ck_out : Fs.replacement;
  ck_writer : writer;
  mutable ck_failed : string option;  (* the temp file is gone *)
  mutable ck_next : (Abdm.Store.dbkey * Abdm.Record.t) Seq.node;
  mutable ck_left : int;
}

let open_snapshot ?wal t ~db ~file =
  let stamp = Option.map (fun w -> (Wal.generation w, Wal.position w)) wal in
  let* src = source t ~db in
  match Fs.replace_open (System.fs t) ~file with
  | exception Unix.Unix_error (e, op, path) -> Error (io_message e op path)
  | out ->
    Ok
      {
        ck_wal = wal;
        ck_stamp = stamp;
        ck_out = out;
        ck_writer = start ?stamp ~db src (Fs.replace_write out);
        ck_failed = None;
        ck_next = Mapping.Kernel.to_seq src.src_kernel ();
        ck_left = Mapping.Kernel.size src.src_kernel;
      }

let checkpoint_begin t ~db ~file = open_snapshot ?wal:(System.wal_of t ~db) t ~db ~file

let checkpoint_slice ck ~max_records =
  let rec go n =
    match ck.ck_next with
    | Seq.Nil -> `Ready
    | Seq.Cons _ when n <= 0 -> `More ck.ck_left
    | Seq.Cons (kv, rest) ->
      add_record ck.ck_writer kv;
      ck.ck_next <- rest ();
      ck.ck_left <- ck.ck_left - 1;
      go (n - 1)
  in
  if ck.ck_failed <> None then `Ready
  else
    match go max_records with
    | r -> r
    | exception Unix.Unix_error (e, op, path) ->
      (* the write failed and took the temp file with it: finishing
         reports the error *)
      ck.ck_failed <- Some (io_message e op path);
      `Ready

(* The snapshot durable under its name: seal, fsync, rename, fsync the
   directory. *)
let commit ck =
  ignore (checkpoint_slice ck ~max_records:max_int);
  match ck.ck_failed with
  | Some msg -> Error msg
  | None ->
    match
      seal ck.ck_writer;
      Fs.replace_commit ck.ck_out
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, op, path) -> Error (io_message e op path)

let save t ~db ~file =
  let* ck = open_snapshot t ~db ~file in
  commit ck

let checkpoint_finish ck =
  (* order matters: the snapshot's rename must be durable (the directory
     fsync inside [commit]) before the log stops carrying the state.
     Were the truncate to survive a power loss that the rename did not,
     recovery would pair the old snapshot with the truncated log. *)
  let* () = commit ck in
  match ck.ck_wal with
  | None -> Ok ()
  | Some wal ->
    let keep_from = match ck.ck_stamp with Some (_, p) -> p | None -> 0 in
    match Wal.truncate_to wal ~keep_from with
    | () -> Ok ()
    | exception Wal.Crash msg -> Error msg
    | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let checkpoint t ~db ~file =
  let* ck = checkpoint_begin t ~db ~file in
  checkpoint_finish ck

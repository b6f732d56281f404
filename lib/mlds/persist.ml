let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* recovery progress: how many WAL frames replay has pushed through the
   kernel and how fast — sampled by the telemetry plane mid-replay, so a
   long startup (or a standby's continuous replay) is visible instead of
   a silent stall *)
let c_replayed = Obs.Metrics.counter "recover.frames_replayed"

let g_replay_rate = Obs.Metrics.gauge "recover.frames_per_s"

(* --- dump (snapshot format v2) ------------------------------------------- *)

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

(* The two header lines the body's checksum does not cover. The CRC's
   eight hex digits start at [crc_offset]; [seal] fills them in. *)
let seal_header = "%MLDS 2\n%CRC 00000000\n"

let crc_offset = String.length "%MLDS 2\n%CRC "

(* A buffer holding [seal_header], then everything down to %DATA, plus
   the kernel the records come from. Shared between [dump] (all at once)
   and the incremental checkpoint. *)
let snapshot_header ?stamp t ~db =
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
  (* about 100 bytes a record: most snapshots never regrow the buffer *)
  let buf = Buffer.create (4096 + (128 * Mapping.Kernel.size kernel)) in
  Buffer.add_string buf seal_header;
  Buffer.add_string buf (Printf.sprintf "%%MODEL %s\n" model);
  Buffer.add_string buf (Printf.sprintf "%%NAME %s\n" db);
  Buffer.add_string buf (kernel_line spec);
  Buffer.add_char buf '\n';
  (* the crash-window stamp: which WAL (generation) and how much of it
     (byte position) this snapshot already covers *)
  (match stamp with
  | Some (g, p) ->
    Buffer.add_string buf (Printf.sprintf "%%WAL gen=%d pos=%d\n" g p)
  | None -> ());
  Buffer.add_string buf "%DDL\n";
  Buffer.add_string buf (String.trim ddl);
  Buffer.add_string buf "\n%DATA\n";
  Ok (buf, kernel)

(* "@<key> INSERT (...)": records are walked in database-key order, so
   the dump is a deterministic function of the state, and keyed restore
   reproduces the keys — dump ∘ restore ∘ dump is byte-identical *)
let record_line buf (key, record) =
  Buffer.add_char buf '@';
  Buffer.add_string buf (string_of_int key);
  Buffer.add_char buf ' ';
  Abdl.Ast.to_buffer buf (Abdl.Ast.Insert record);
  Buffer.add_char buf '\n'

(* The finished snapshot: the CRC of everything after the two header
   lines, written over the placeholder digits in the one copy of the
   buffer the result needs anyway. *)
let seal buf =
  let b = Buffer.to_bytes buf in
  let body = String.length seal_header in
  let crc = Wal.crc32_bytes b ~pos:body ~len:(Bytes.length b - body) in
  Bytes.blit_string (Printf.sprintf "%08x" crc) 0 b crc_offset 8;
  Bytes.unsafe_to_string b

let dump ?stamp t ~db =
  let* buf, kernel = snapshot_header ?stamp t ~db in
  Seq.iter (record_line buf) (Mapping.Kernel.to_seq kernel);
  Ok (seal buf)

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

let parse_sections text =
  let lines = String.split_on_char '\n' text in
  let* version, lines =
    match lines with
    | first :: rest when String.trim first = "%MLDS 1" -> Ok (1, rest)
    | first :: crc_line :: rest when String.trim first = "%MLDS 2" ->
      (* the %CRC header covers every byte after its own line *)
      let* stored =
        match
          String.split_on_char ' ' (String.trim crc_line)
          |> List.filter (fun w -> w <> "")
        with
        | [ "%CRC"; hex ] ->
          (match int_of_string_opt ("0x" ^ hex) with
          | Some crc -> Ok crc
          | None -> err "bad %%CRC header %S" hex)
        | _ -> err "missing %%CRC header in a v2 save file"
      in
      let body = String.concat "\n" rest in
      if Wal.crc32 body <> stored then
        err "save file checksum mismatch (corrupt or truncated)"
      else Ok (2, rest)
    | _ -> err "not an MLDS save file (missing %%MLDS header)"
  in
  ignore version;
  let model = ref None in
  let db_name = ref None in
  let kernel_spec = ref None in
  let wal_stamp = ref None in
  let ddl = Buffer.create 1024 in
  let data = ref [] in
  let bad = ref None in
  let section = ref `Header in
  List.iter
    (fun line ->
      let trimmed = String.trim line in
      if String.equal trimmed "%DDL" then section := `Ddl
      else if String.equal trimmed "%DATA" then section := `Data
      else
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
            | Error msg -> if !bad = None then bad := Some msg)
    lines;
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

(* --- atomic save ---------------------------------------------------------- *)

let save_failure = ref false

let inject_save_failure () = save_failure := true

(* temp file in the destination directory + fsync + rename: the target
   either keeps its old contents or atomically gains the complete new
   snapshot — never a truncated or half-written one *)
let write_atomic ~file text =
  match
    Filename.temp_file ~temp_dir:(Filename.dirname file)
      (Filename.basename file ^ ".") ".tmp"
  with
  | exception Sys_error msg -> Error msg
  | tmp ->
    match
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          if !save_failure then begin
            save_failure := false;
            (* the injected fault: die after writing half the snapshot *)
            output_string oc (String.sub text 0 (String.length text / 2));
            raise (Sys_error "injected save failure")
          end;
          output_string oc text;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc));
      Sys.rename tmp file
    with
    | () -> Ok ()
    | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error msg

let save t ~db ~file =
  let* text = dump t ~db in
  write_atomic ~file text

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
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error msg -> Error msg

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

(* --- checkpoint ------------------------------------------------------------ *)

let checkpoint_crash = ref false

let inject_checkpoint_crash () = checkpoint_crash := true

(* An in-flight incremental checkpoint. [checkpoint_begin] captures the
   state — header, DDL, the key-ordered record sequence, and the WAL's
   (generation, position) stamp — at one instant behind the caller's
   write barrier. Records are immutable values behind immutable maps, so
   later mutations replace bindings without disturbing the captured
   sequence: [checkpoint_slice] can serialize it in bounded steps while
   writes keep flowing, and the snapshot is still the exact state at
   capture time. *)
type ckpt = {
  ck_file : string;
  ck_wal : Wal.t option;
  ck_stamp : (int * int) option;
  ck_buf : Buffer.t;  (* header + serialized records so far *)
  mutable ck_next : (Abdm.Store.dbkey * Abdm.Record.t) Seq.node;
  mutable ck_left : int;
}

let checkpoint_begin t ~db ~file =
  let wal = System.wal_of t ~db in
  let stamp = Option.map (fun w -> (Wal.generation w, Wal.position w)) wal in
  let* buf, kernel = snapshot_header ?stamp t ~db in
  Ok
    {
      ck_file = file;
      ck_wal = wal;
      ck_stamp = stamp;
      ck_buf = buf;
      ck_next = Mapping.Kernel.to_seq kernel ();
      ck_left = Mapping.Kernel.size kernel;
    }

let checkpoint_slice ck ~max_records =
  let rec go n =
    match ck.ck_next with
    | Seq.Nil -> `Ready
    | Seq.Cons _ when n <= 0 -> `More ck.ck_left
    | Seq.Cons (kv, rest) ->
      record_line ck.ck_buf kv;
      ck.ck_next <- rest ();
      ck.ck_left <- ck.ck_left - 1;
      go (n - 1)
  in
  go max_records

let checkpoint_finish ck =
  (* finishing drains any remaining records first *)
  ignore (checkpoint_slice ck ~max_records:max_int);
  (* order matters: the snapshot must be durable (fsync + rename inside
     [write_atomic]) before the log stops carrying the state *)
  let* () = write_atomic ~file:ck.ck_file (seal ck.ck_buf) in
  if !checkpoint_crash then begin
    (* the injected fault: the process dies in the exact window between
       the durable snapshot and the WAL truncate *)
    checkpoint_crash := false;
    Error "injected crash between snapshot save and WAL truncate"
  end
  else
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

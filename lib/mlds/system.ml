type language =
  | L_codasyl
  | L_daplex
  | L_sql
  | L_dli
  | L_abdl

type session =
  | S_codasyl of Codasyl_dml.Session.t
  | S_daplex of Daplex_dml.Engine.t
  | S_sql of Relational.Engine.t
  | S_dli of Hierarchical.Engine.t
  | S_abdl of Mapping.Kernel.t

(* A parse result: immutable AST lists, safe to share across sessions —
   what the statement cache stores. *)
type parsed =
  | P_codasyl of Codasyl_dml.Ast.stmt list
  | P_daplex of Daplex_dml.Ast.stmt list
  | P_sql of Relational.Sql_ast.stmt list
  | P_dli of Hierarchical.Dli_ast.call list
  | P_abdl of Abdl.Ast.request list

type kernel_spec = {
  spec_backends : int;
  spec_placement : Mbds.Controller.placement option;
}

type t = {
  registry : Registry.t;
  backends : int;
  placement : Mbds.Controller.placement option;
  fs : Fs.t;  (* every WAL, snapshot and standby file is written through it *)
  users : (string * string * string, session) Hashtbl.t;
      (* (user, language name, db) -> live session *)
  sql_engines : (string, Relational.Engine.t) Hashtbl.t;
      (* relational schemas grow via CREATE TABLE; one engine per
         database so definitions persist across sessions *)
  wals : (string, Wal.t) Hashtbl.t;  (* db name -> attached write-ahead log *)
  txn_owners : (string, int) Hashtbl.t;
      (* db name -> id of the handle holding the db's open transaction *)
  stmt_cache : parsed Stmt_cache.t;
      (* (language, source) -> parse result; repeated statements skip LIL *)
  next_handle : int Atomic.t;
  (* Guards [users], [sql_engines] and [txn_owners] against callers on
     different threads. Critical sections are a lookup or a single
     replace/remove — never a kernel call. [wals] and [registry] stay
     unguarded: both are mutated only at startup or on the executor
     (promote), the thread that also runs the group-commit bracket. *)
  mx : Mutex.t;
}

let create ?(backends = 0) ?placement ?stmt_cache_capacity ?(fs = Fs.unix) ()
    =
  {
    registry = Registry.create ();
    backends;
    placement;
    fs;
    users = Hashtbl.create 8;
    sql_engines = Hashtbl.create 8;
    wals = Hashtbl.create 4;
    txn_owners = Hashtbl.create 4;
    stmt_cache = Stmt_cache.create ?capacity:stmt_cache_capacity ();
    next_handle = Atomic.make 1;
    mx = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

let stmt_cache t = t.stmt_cache

let fs t = t.fs

let fresh_kernel ?kernel:spec t name =
  let backends, placement =
    match spec with
    | Some s -> s.spec_backends, s.spec_placement
    | None -> t.backends, t.placement
  in
  if backends >= 1 then Mapping.Kernel.multi ~name ?placement backends
  else Mapping.Kernel.single ~name ()

let define_functional ?kernel t ~name ~ddl rows =
  match Daplex.Ddl_parser.schema ddl with
  | exception Daplex.Ddl_parser.Parse_error msg -> Error ("Daplex DDL: " ^ msg)
  | schema ->
    match Transformer.Transform.transform schema with
    | exception Invalid_argument msg -> Error msg
    | transform ->
      let k = fresh_kernel ?kernel t name in
      match Mapping.Loader.load k transform rows with
      | exception Invalid_argument msg -> Error msg
      | _keys ->
        Registry.define t.registry name
          { Registry.db = Registry.Db_functional { schema; transform }; kernel = k }

let define_network ?kernel t ~name ~ddl =
  match Network.Ddl_parser.schema ddl with
  | exception Network.Ddl_parser.Parse_error msg -> Error ("network DDL: " ^ msg)
  | schema ->
    Registry.define t.registry name
      { Registry.db = Registry.Db_network schema;
        kernel = fresh_kernel ?kernel t name }

let define_relational ?kernel t ~name =
  Registry.define t.registry name
    {
      Registry.db = Registry.Db_relational (Relational.Types.empty name);
      kernel = fresh_kernel ?kernel t name;
    }

let define_hierarchical ?kernel t ~name ~ddl =
  match Hierarchical.Ddl_parser.schema ddl with
  | exception Hierarchical.Ddl_parser.Parse_error msg ->
    Error ("hierarchical DDL: " ^ msg)
  | schema ->
    Registry.define t.registry name
      {
        Registry.db = Registry.Db_hierarchical schema;
        kernel = fresh_kernel ?kernel t name;
      }

let databases t =
  List.map
    (fun name ->
      match Registry.find t.registry name with
      | Some entry -> name, Registry.model_name entry.Registry.db
      | None -> name, "?")
    (Registry.names t.registry)

let kernel_of t name =
  Option.map (fun e -> e.Registry.kernel) (Registry.find t.registry name)

let kernel_spec_of t name =
  Option.map
    (fun kernel ->
      match Mapping.Kernel.kds kernel with
      | Mapping.Kernel.Single _ ->
        { spec_backends = 0; spec_placement = None }
      | Mapping.Kernel.Multi ctrl ->
        {
          spec_backends = Mbds.Controller.num_backends ctrl;
          spec_placement = Some (Mbds.Controller.placement ctrl);
        })
    (kernel_of t name)

(* --- write-ahead logging ------------------------------------------------- *)

let wal_of t ~db = Hashtbl.find_opt t.wals db

let entry_of_event = function
  | Mapping.Kernel.Ev_begin -> Wal.Begin
  | Mapping.Kernel.Ev_commit -> Wal.Commit
  | Mapping.Kernel.Ev_abort -> Wal.Abort
  | Mapping.Kernel.Ev_insert (key, record) -> Wal.Keyed_insert (key, record)
  | Mapping.Kernel.Ev_replace (key, record) -> Wal.Replace (key, record)
  | Mapping.Kernel.Ev_delete query -> Wal.Request (Abdl.Ast.Delete query)
  | Mapping.Kernel.Ev_update (query, mods) ->
    Wal.Request (Abdl.Ast.Update (query, mods))

let detach_wal t ~db =
  match Hashtbl.find_opt t.wals db with
  | None -> ()
  | Some wal ->
    Hashtbl.remove t.wals db;
    (match kernel_of t db with
    | Some kernel -> Mapping.Kernel.set_wal_hook kernel None
    | None -> ());
    Wal.close wal

let attach_wal ?fsync t ~db ~file =
  match kernel_of t db with
  | None -> Error (Printf.sprintf "unknown database %S" db)
  | Some kernel ->
    detach_wal t ~db;
    let wal = Wal.open_log ~fs:t.fs ?fsync file in
    Hashtbl.replace t.wals db wal;
    (* group commit: the fsync happens when the outermost transaction
       commits (or immediately for a mutation outside any transaction), so
       the caller sees Ok only once the log is durable *)
    let depth = ref 0 in
    Mapping.Kernel.set_wal_hook kernel
      (Some
         (fun event ->
           Wal.append wal (entry_of_event event);
           (match event with
           | Mapping.Kernel.Ev_begin -> incr depth
           | Mapping.Kernel.Ev_commit | Mapping.Kernel.Ev_abort ->
             if !depth > 0 then decr depth
           | _ -> ());
           if !depth = 0 then Wal.sync wal));
    Ok wal

let schema_ddl t name =
  match Registry.find t.registry name with
  | None -> None
  | Some entry ->
    match
      entry.Registry.db,
      Option.map Relational.Engine.schema
        (locked t (fun () -> Hashtbl.find_opt t.sql_engines name))
    with
    | Registry.Db_relational _, Some live ->
      Some (Registry.schema_ddl (Registry.Db_relational live))
    | db, _ -> Some (Registry.schema_ddl db)

let language_of_string s =
  match String.lowercase_ascii s with
  | "codasyl" | "codasyl-dml" | "dml" | "network" -> Some L_codasyl
  | "daplex" | "functional" -> Some L_daplex
  | "sql" | "relational" -> Some L_sql
  | "dli" | "dl/i" | "dl1" | "hierarchical" -> Some L_dli
  | "abdl" | "kernel" | "attribute-based" -> Some L_abdl
  | _ -> None

let language_to_string = function
  | L_codasyl -> "CODASYL-DML"
  | L_daplex -> "Daplex"
  | L_sql -> "SQL"
  | L_dli -> "DL/I"
  | L_abdl -> "ABDL"

let open_session t language ~db =
  match Registry.find t.registry db with
  | None -> Error (Printf.sprintf "unknown database %S" db)
  | Some entry ->
    let kernel = entry.Registry.kernel in
    match language, entry.Registry.db with
    | L_abdl, _ -> Ok (S_abdl kernel)
    | L_codasyl, Registry.Db_network schema ->
      Ok (S_codasyl (Codasyl_dml.Session.create kernel (Mapping.Ab_schema.Net schema)))
    | L_codasyl, Registry.Db_functional { transform; _ } ->
      (* the thesis path: CODASYL-DML transactions on a functional db *)
      Ok (S_codasyl (Codasyl_dml.Session.create kernel (Mapping.Ab_schema.Fun transform)))
    | L_daplex, Registry.Db_functional { transform; _ } ->
      Ok (S_daplex (Daplex_dml.Engine.create kernel transform))
    | L_daplex, Registry.Db_network schema ->
      (* reverse cross-model path: Daplex over the functional view of a
         network database (§III.B.2's all-pairs vision) *)
      begin
        match Transformer.Net_to_fun.functional_view schema with
        | transform -> Ok (S_daplex (Daplex_dml.Engine.create kernel transform))
        | exception Invalid_argument msg -> Error msg
      end
    | L_sql, Registry.Db_relational _ ->
      let engine =
        locked t (fun () ->
            match Hashtbl.find_opt t.sql_engines db with
            | Some engine -> engine
            | None ->
              let engine = Relational.Engine.create kernel db in
              Hashtbl.replace t.sql_engines db engine;
              engine)
      in
      Ok (S_sql engine)
    | L_dli, Registry.Db_hierarchical schema ->
      Ok (S_dli (Hierarchical.Engine.create kernel schema))
    | L_sql, Registry.Db_hierarchical schema ->
      (* the second cross-model path (§VII / Zawis): SQL over the
         relational view of a hierarchical database, read-only *)
      Ok
        (S_sql
           (Relational.Engine.create ~read_only:true
              ~schema:(Views.of_hierarchical schema) kernel db))
    | L_sql, Registry.Db_functional { transform; _ } ->
      (* third cross-model path: read-only SQL over the AB(functional)
         image — the kernel layout is already tabular *)
      let descriptor =
        Mapping.Ab_schema.descriptor (Mapping.Ab_schema.Fun transform)
      in
      Ok
        (S_sql
           (Relational.Engine.create ~read_only:true
              ~schema:(Views.of_descriptor descriptor) kernel db))
    | L_sql, Registry.Db_network schema ->
      (* and over the AB(network) image, the same way *)
      let descriptor =
        Mapping.Ab_schema.descriptor (Mapping.Ab_schema.Net schema)
      in
      Ok
        (S_sql
           (Relational.Engine.create ~read_only:true
              ~schema:(Views.of_descriptor descriptor) kernel db))
    | (L_codasyl | L_daplex | L_dli), _ ->
      Error
        (Printf.sprintf "no %s language interface onto a %s database"
           (language_to_string language)
           (Registry.model_name entry.Registry.db))

let open_user_session t ~user language ~db =
  let key = user, language_to_string language, db in
  match locked t (fun () -> Hashtbl.find_opt t.users key) with
  | Some session -> Ok session
  | None ->
    match open_session t language ~db with
    | Ok session ->
      (* a racing open of the same triple keeps the first session *)
      locked t (fun () ->
          match Hashtbl.find_opt t.users key with
          | Some existing -> Ok existing
          | None ->
            Hashtbl.replace t.users key session;
            Ok session)
    | Error _ as e -> e

let user_sessions t =
  locked t (fun () -> Hashtbl.fold (fun key _ acc -> key :: acc) t.users [])
  |> List.sort compare

let session_language = function
  | S_codasyl _ -> L_codasyl
  | S_daplex _ -> L_daplex
  | S_sql _ -> L_sql
  | S_dli _ -> L_dli
  | S_abdl _ -> L_abdl

(* The LIL front end proper, separated from execution so the statement
   cache can serve a repeated statement without re-parsing it. *)
let parse_language language src =
  match
    match language with
    | L_codasyl -> P_codasyl (Codasyl_dml.Parser.program src)
    | L_daplex -> P_daplex (Daplex_dml.Parser.program src)
    | L_sql -> P_sql (Relational.Sql_parser.program src)
    | L_dli -> P_dli (Hierarchical.Dli_parser.program src)
    | L_abdl -> P_abdl (Abdl.Parser.transaction src)
  with
  | parsed -> Ok parsed
  | exception Abdl.Syntax.Parse_error msg -> Error msg

(* Cache only successes: a parse error is cheap to recompute and rare on
   the hot path, and caching it would let one typo pin a cache slot. *)
let parse_cached t language src =
  let lang = language_to_string language in
  match Stmt_cache.find t.stmt_cache ~language:lang ~src with
  | Some parsed -> Ok parsed
  | None ->
    match parse_language language src with
    | Error _ as e -> e
    | Ok parsed ->
      Stmt_cache.add t.stmt_cache ~language:lang ~src parsed;
      Ok parsed

(* KMS translation + KC execution + KFS formatting over an already-parsed
   program. The engines interleave translation and execution per statement,
   so those two stages share one span — each kernel request inside opens
   its own [kernel.run] child. *)
let run_parsed session parsed =
  let exec execute format input =
    let results =
      Obs.Span.with_span "kms.translate+kc.execute" (fun () -> execute input)
    in
    Obs.Span.with_span "kfs.format" (fun () -> format results)
  in
  match session, parsed with
  | S_codasyl s, P_codasyl stmts ->
    exec (Codasyl_dml.Engine.run_program s) Kfs.format_codasyl stmts
  | S_daplex engine, P_daplex stmts ->
    exec (Daplex_dml.Engine.run_program engine) Kfs.format_daplex stmts
  | S_sql engine, P_sql stmts ->
    exec
      (List.map (fun st -> st, Relational.Engine.execute engine st))
      Kfs.format_sql stmts
  | S_dli engine, P_dli calls ->
    exec
      (List.map (fun call -> call, Hierarchical.Engine.execute engine call))
      Kfs.format_dli calls
  | S_abdl kernel, P_abdl requests ->
    exec
      (List.map (fun r -> r, Mapping.Kernel.run kernel r))
      Kfs.format_abdl requests
  | (S_codasyl _ | S_daplex _ | S_sql _ | S_dli _ | S_abdl _), _ ->
    invalid_arg "Mlds.System: parsed form does not match session language"

(* One [mlds.submit] span per submission with the pipeline stages as
   children: LIL parse (possibly a cache hit), then KMS+KC, then KFS. *)
let submit_with ~parse session src =
  let language = session_language session in
  Obs.Span.with_span "mlds.submit"
    ~attrs:(fun () -> [ "language", language_to_string language ])
    (fun () ->
      match Obs.Span.with_span "lil.parse" (fun () -> parse language src) with
      | Error _ as e -> e
      | Ok parsed -> Ok (run_parsed session parsed))

let submit session src = submit_with ~parse:parse_language session src

(* --- session handles ----------------------------------------------------- *)

type handle = {
  h_id : int;
  h_system : t;
  h_session : session;
  h_user : string;
  h_language : language;
  h_db : string;
  mutable h_closed : bool;
}

type handle_error =
  | H_closed
  | H_busy of int
  | H_no_txn
  | H_txn_open
  | H_parse of string

let handle_error_to_string = function
  | H_closed -> "session is closed"
  | H_busy other ->
    Printf.sprintf "database busy: session %d holds an open transaction" other
  | H_no_txn -> "no open transaction"
  | H_txn_open -> "a transaction is already open in this session"
  | H_parse msg -> msg

let open_handle ?(user = "anonymous") t language ~db =
  match open_session t language ~db with
  | Error _ as e -> e
  | Ok session ->
    let id = Atomic.fetch_and_add t.next_handle 1 in
    Ok
      {
        h_id = id;
        h_system = t;
        h_session = session;
        h_user = user;
        h_language = language;
        h_db = db;
        h_closed = false;
      }

let handle_id h = h.h_id

let handle_user h = h.h_user

let handle_language h = h.h_language

let handle_db h = h.h_db

let handle_session h = h.h_session

let handle_closed h = h.h_closed

(* Each [txn_owners] access takes the system mutex (the per-database
   check-then-set sequences need no wider lock — one database's
   transactions are serialized by the executor). *)
let txn_owner t ~db = locked t (fun () -> Hashtbl.find_opt t.txn_owners db)

let txn_claim t ~db id = locked t (fun () -> Hashtbl.replace t.txn_owners db id)

let txn_release t ~db = locked t (fun () -> Hashtbl.remove t.txn_owners db)

let in_txn h = txn_owner h.h_system ~db:h.h_db = Some h.h_id

(* [Some (H_busy id)] when another handle's transaction blocks [h] from
   touching its database: with a single undo journal per kernel, letting a
   second session read (dirty reads) or write (its changes hostage to the
   other session's abort) mid-transaction would break isolation. *)
let blocked h =
  match txn_owner h.h_system ~db:h.h_db with
  | Some owner when owner <> h.h_id -> Some (H_busy owner)
  | Some _ | None -> None

let kernel_of_handle h = kernel_of h.h_system h.h_db

let begin_txn h =
  if h.h_closed then Error H_closed
  else
    match blocked h with
    | Some e -> Error e
    | None ->
      if in_txn h then Error H_txn_open
      else begin
        match kernel_of_handle h with
        | None -> Error H_closed
        | Some kernel ->
          Mapping.Kernel.begin_transaction kernel;
          txn_claim h.h_system ~db:h.h_db h.h_id;
          Ok ()
      end

let end_txn h ~commit =
  if h.h_closed then Error H_closed
  else
    match blocked h with
    | Some e -> Error e
    | None ->
      if not (in_txn h) then Error H_no_txn
      else begin
        match kernel_of_handle h with
        | None -> Error H_closed
        | Some kernel ->
          txn_release h.h_system ~db:h.h_db;
          (if commit then Mapping.Kernel.commit kernel
           else Mapping.Kernel.rollback kernel);
          Ok ()
      end

let commit_txn h = end_txn h ~commit:true

let abort_txn h = end_txn h ~commit:false

let submit_handle h src =
  if h.h_closed then Error H_closed
  else
    match blocked h with
    | Some e -> Error e
    | None ->
      (match
         submit_with
           ~parse:(fun language src -> parse_cached h.h_system language src)
           h.h_session src
       with
      | Ok _ as ok -> ok
      | Error msg -> Error (H_parse msg))

(* The selections an ABDL request evaluates — what .explain plans.
   INSERT touches no query; RETRIEVE_COMMON runs one per side. *)
let queries_of_request (request : Abdl.Ast.request) =
  match request with
  | Abdl.Ast.Insert _ -> []
  | Abdl.Ast.Delete query -> [ query ]
  | Abdl.Ast.Update (query, _) -> [ query ]
  | Abdl.Ast.Retrieve { query; _ } -> [ query ]
  | Abdl.Ast.Retrieve_common { rc_left; rc_right; _ } -> [ rc_left; rc_right ]

(* .explain speaks ABDL — the kernel language every session language
   compiles into — regardless of the handle's own language, because the
   plan is a property of the kernel query, not of the surface syntax. *)
let explain_handle h src =
  if h.h_closed then Error H_closed
  else
    match blocked h with
    | Some e -> Error e
    | None ->
      (match kernel_of_handle h with
      | None -> Error H_closed
      | Some kernel ->
        (match Abdl.Parser.transaction src with
        | exception Abdl.Parser.Parse_error msg ->
          Error (H_parse ("ABDL: " ^ msg))
        | requests ->
          (match List.concat_map queries_of_request requests with
          | [] -> Ok "nothing to explain: no selection in the statement"
          | queries ->
            Ok
              (String.concat "\n"
                 (List.map
                    (fun query ->
                      Printf.sprintf "query: %s\n%s"
                        (Abdm.Query.to_string query)
                        (Mapping.Kernel.explain kernel query))
                    queries)))))

(* Closing aborts the handle's open transaction (disconnect = abort, the
   server tier's contract) and fences further use. Idempotent. *)
let close_handle h =
  if not h.h_closed then begin
    (if in_txn h then
       match kernel_of_handle h with
       | Some kernel ->
         txn_release h.h_system ~db:h.h_db;
         (try Mapping.Kernel.rollback kernel with _ -> ())
       | None -> txn_release h.h_system ~db:h.h_db);
    h.h_closed <- true
  end

(* --- read/write classification ------------------------------------------- *)

(* Per-opcode knowledge of which statements touch only the read path of
   the kernel. Anything that stores, erases, modifies, connects or
   assigns is a write; so is anything we cannot prove otherwise. Note
   MOVE / FIND / GET / GN mutate only {e session} state (UWA, currency),
   which is private to the handle, so they classify as reads. *)
let rec codasyl_read_only (stmt : Codasyl_dml.Ast.stmt) =
  match stmt with
  | Codasyl_dml.Ast.Move _ | Codasyl_dml.Ast.Find _ | Codasyl_dml.Ast.Get _ ->
    true
  | Codasyl_dml.Ast.Perform_until_eof body ->
    List.for_all codasyl_read_only body
  | Codasyl_dml.Ast.Store _ | Codasyl_dml.Ast.Connect _
  | Codasyl_dml.Ast.Disconnect _ | Codasyl_dml.Ast.Modify _
  | Codasyl_dml.Ast.Erase _ ->
    false

let daplex_read_only (stmt : Daplex_dml.Ast.stmt) =
  match stmt with
  | Daplex_dml.Ast.For_each { body; _ } ->
    List.for_all
      (function
        | Daplex_dml.Ast.A_print _ -> true
        | Daplex_dml.Ast.A_let _ | Daplex_dml.Ast.A_include _
        | Daplex_dml.Ast.A_exclude _ ->
          false)
      body
  | Daplex_dml.Ast.Create _ | Daplex_dml.Ast.Destroy _ -> false

let sql_read_only (stmt : Relational.Sql_ast.stmt) =
  match stmt with
  | Relational.Sql_ast.Select _ -> true
  | Relational.Sql_ast.Create_table _ | Relational.Sql_ast.Insert _
  | Relational.Sql_ast.Delete _ | Relational.Sql_ast.Update _ ->
    false

let dli_read_only (call : Hierarchical.Dli_ast.call) =
  match call with
  | Hierarchical.Dli_ast.Gu _ | Hierarchical.Dli_ast.Gn _
  | Hierarchical.Dli_ast.Gnp _ ->
    true
  | Hierarchical.Dli_ast.Isrt _ | Hierarchical.Dli_ast.Repl _
  | Hierarchical.Dli_ast.Dlet ->
    false

let abdl_read_only (request : Abdl.Ast.request) =
  match request with
  | Abdl.Ast.Retrieve _ | Abdl.Ast.Retrieve_common _ -> true
  | Abdl.Ast.Insert _ | Abdl.Ast.Delete _ | Abdl.Ast.Update _ -> false

let parsed_read_only = function
  | P_codasyl stmts -> List.for_all codasyl_read_only stmts
  | P_daplex stmts -> List.for_all daplex_read_only stmts
  | P_sql stmts -> List.for_all sql_read_only stmts
  | P_dli calls -> List.for_all dli_read_only calls
  | P_abdl requests -> List.for_all abdl_read_only requests

(* [`Read] is a promise that executing [src] on [h] mutates no database
   state. A parse error or a closed handle is [`Write]: the standby's
   read-only gate refuses what it cannot prove harmless. *)
let classify_handle h src =
  if h.h_closed then `Write
  else
    match parse_cached h.h_system (session_language h.h_session) src with
    | Error _ -> `Write
    | Ok parsed -> if parsed_read_only parsed then `Read else `Write

(* --- WAL group commit ----------------------------------------------------- *)

(* Brackets a server batch: every attached WAL defers its commit-time
   fsyncs. [wal_group_end] closes the bracket without fsyncing and
   returns the logs that owe a covering fsync, each with the position it
   must reach; the server hands those to its flushers and withholds the
   acks until they land, so confirmed => durable is preserved. *)
let wal_group_begin t =
  Hashtbl.iter (fun _ wal -> try Wal.begin_group wal with Wal.Crash _ -> ())
    t.wals

let wal_group_end t =
  Hashtbl.fold
    (fun _ wal owed ->
      Wal.leave_group wal;
      let pos = Wal.committed_position wal in
      if pos > Wal.synced_position wal then (wal, pos) :: owed else owed)
    t.wals []

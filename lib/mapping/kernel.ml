type kds =
  | Single of Abdm.Store.t
  | Multi of Mbds.Controller.t

(* The durability event stream: one event per executed mutation, plus the
   transaction brackets of [atomically]. A WAL (Mlds.Wal) subscribes via
   [set_wal_hook]; events are emitted *after* the in-memory mutation
   succeeds, on the orchestrating domain, in execution order. *)
type event =
  | Ev_begin
  | Ev_commit
  | Ev_abort
  | Ev_insert of Abdm.Store.dbkey * Abdm.Record.t
  | Ev_replace of Abdm.Store.dbkey * Abdm.Record.t
  | Ev_delete of Abdm.Query.t
  | Ev_update of Abdm.Query.t * Abdm.Modifier.t list

type t = {
  kds : kds;
  mutable wal_hook : (event -> unit) option;
  mutable tap : Abdl.Ast.request list ref option;
      (* the requests of the open [collect], newest first *)
  mutable txn_depth : int;
      (* explicit + [atomically] nesting; the underlying store journal is
         single-level, so only the outermost bracket touches it *)
}

let kds t = t.kds

let set_wal_hook t hook = t.wal_hook <- hook

let wal_hook t = t.wal_hook

let emit t ev =
  match t.wal_hook with
  | Some hook -> hook ev
  | None -> ()

(* The request tap: the one place the one-to-many correspondence of a
   statement and its ABDL requests is observed. It keeps nothing unless
   a [collect] is open. *)
let note t request =
  match t.tap with
  | Some requests -> requests := request :: !requests
  | None -> ()

let collect t f =
  let requests = ref [] in
  t.tap <- Some requests;
  Fun.protect
    ~finally:(fun () -> t.tap <- None)
    (fun () ->
      let result = f () in
      result, List.rev !requests)

let make kds = { kds; wal_hook = None; tap = None; txn_depth = 0 }

let single ?name () = make (Single (Abdm.Store.create ?name ()))

let multi ?name ?placement ?pool n =
  make (Multi (Mbds.Controller.create ?name ?placement ?pool n))

let insert t record =
  let key =
    match t.kds with
    | Single store -> Abdm.Store.insert store record
    | Multi ctrl -> Mbds.Controller.insert ctrl record
  in
  emit t (Ev_insert (key, record));
  key

(* One conditional insert: the check and the write are one kernel call,
   not two requests with a gap between them. Each probe is
   [Abdm.Store.exists]: the planner's index probe a RETRIEVE would make,
   without its plan, key set or rows. *)
let insert_unique t record probes =
  note t (Abdl.Ast.Insert record);
  Obs.Span.with_span "kernel.run"
    ~attrs:(fun () -> [ "request", "insert" ])
    (fun () ->
      let key =
        match t.kds with
        | Single store ->
          if List.exists (Abdm.Store.exists store) probes then
            None
          else Some (Abdm.Store.insert store record)
        | Multi ctrl -> Mbds.Controller.insert_unique ctrl record probes
      in
      Option.iter (fun key -> emit t (Ev_insert (key, record))) key;
      key)

let insert_keyed t key record =
  begin
    match t.kds with
    | Single store -> Abdm.Store.insert_keyed store key record
    | Multi ctrl -> Mbds.Controller.insert_keyed ctrl key record
  end;
  emit t (Ev_insert (key, record))

(* RETRIEVE (query) (ALL) without shaping rows: the matches themselves,
   in the order the rows would come. *)
let select t query =
  note t (Abdl.Ast.retrieve query [ Abdl.Ast.T_all ]);
  Obs.Span.with_span "kernel.run"
    ~attrs:(fun () -> [ "request", "retrieve" ])
    (fun () ->
      match t.kds with
      | Single store -> Abdm.Store.select store query
      | Multi ctrl -> Mbds.Controller.select ctrl query)

let explain t query =
  match t.kds with
  | Single store -> Abdm.Plan.to_string (Abdm.Store.explain store query)
  | Multi ctrl -> Mbds.Controller.explain ctrl query

let delete t query =
  let n =
    match t.kds with
    | Single store -> Abdm.Store.delete store query
    | Multi ctrl -> Mbds.Controller.delete ctrl query
  in
  emit t (Ev_delete query);
  n

let update t query modifiers =
  let n =
    match t.kds with
    | Single store -> Abdm.Store.update store query modifiers
    | Multi ctrl -> Mbds.Controller.update ctrl query modifiers
  in
  emit t (Ev_update (query, modifiers));
  n

let get t =
  match t.kds with
  | Single store -> Abdm.Store.get store
  | Multi ctrl -> Mbds.Controller.get ctrl

let replace t key record =
  begin
    match t.kds with
    | Single store -> Abdm.Store.replace store key record
    | Multi ctrl -> Mbds.Controller.replace ctrl key record
  end;
  emit t (Ev_replace (key, record))

let request_kind (request : Abdl.Ast.request) =
  match request with
  | Abdl.Ast.Insert _ -> "insert"
  | Abdl.Ast.Delete _ -> "delete"
  | Abdl.Ast.Update _ -> "update"
  | Abdl.Ast.Retrieve _ -> "retrieve"
  | Abdl.Ast.Retrieve_common _ -> "retrieve-common"

let run t request =
  note t request;
  Obs.Span.with_span "kernel.run"
    ~attrs:(fun () -> [ "request", request_kind request ])
    (fun () ->
      let result =
        match t.kds with
        | Single store -> Abdl.Exec.run store request
        | Multi ctrl -> Mbds.Controller.run ctrl request
      in
      begin
        match t.wal_hook, request, result with
        | None, _, _ -> ()
        | Some hook, Abdl.Ast.Insert record, Abdl.Exec.Inserted key ->
          hook (Ev_insert (key, record))
        | Some hook, Abdl.Ast.Delete query, _ -> hook (Ev_delete query)
        | Some hook, Abdl.Ast.Update (query, modifiers), _ ->
          hook (Ev_update (query, modifiers))
        | Some _, (Abdl.Ast.Retrieve _ | Abdl.Ast.Retrieve_common _), _ -> ()
        | Some _, Abdl.Ast.Insert _, _ -> ()
      end;
      result)

let to_seq t =
  match t.kds with
  | Single store -> Abdm.Store.to_seq store
  | Multi ctrl -> Mbds.Controller.to_seq ctrl

let next_key t =
  match t.kds with
  | Single store -> Abdm.Store.next_key store
  | Multi ctrl -> Mbds.Controller.next_key ctrl

let count t =
  match t.kds with
  | Single store -> Abdm.Store.count store
  | Multi ctrl -> Mbds.Controller.count ctrl

let size t =
  match t.kds with
  | Single store -> Abdm.Store.size store
  | Multi ctrl -> Mbds.Controller.size ctrl

let journal_ops t =
  match t.kds with
  | Single store ->
    ( (fun () -> Abdm.Store.begin_transaction store),
      (fun () -> Abdm.Store.commit store),
      fun () -> Abdm.Store.rollback store )
  | Multi ctrl ->
    ( (fun () -> Mbds.Controller.begin_transaction ctrl),
      (fun () -> Mbds.Controller.commit ctrl),
      fun () -> Mbds.Controller.rollback ctrl )

let begin_transaction t =
  let begin_t, _, _ = journal_ops t in
  if t.txn_depth = 0 then begin
    begin_t ();
    emit t Ev_begin
  end;
  t.txn_depth <- t.txn_depth + 1

let commit t =
  if t.txn_depth = 0 then invalid_arg "Kernel.commit: no open transaction";
  t.txn_depth <- t.txn_depth - 1;
  if t.txn_depth = 0 then begin
    let _, commit_t, _ = journal_ops t in
    commit_t ();
    (* the durability point: the subscriber fsyncs on commit, and the
       caller sees the commit return only after that *)
    emit t Ev_commit
  end

let rollback t =
  if t.txn_depth = 0 then invalid_arg "Kernel.rollback: no open transaction";
  t.txn_depth <- t.txn_depth - 1;
  if t.txn_depth = 0 then begin
    let _, _, rollback_t = journal_ops t in
    rollback_t ();
    (* the abort marker is best-effort: if the WAL itself is the thing
       that crashed, appending to it raises again — recovery treats an
       unterminated transaction exactly like an aborted one *)
    (try emit t Ev_abort with _ -> ())
  end

let atomically t f =
  if t.txn_depth > 0 then
    (* already inside a transaction: the enclosing journal covers these
       changes, so an inner bracket would be redundant (and the store
       journal is single-level). An inner [Error] leaves its partial
       effects to the enclosing transaction's fate — the paper's
       single-level transaction model. *)
    f ()
  else begin
    begin_transaction t;
    match f () with
    | Ok _ as ok ->
      commit t;
      ok
    | Error _ as error ->
      rollback t;
      error
    | exception exn ->
      (try rollback t with _ -> ());
      raise exn
  end

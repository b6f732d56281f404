type outcome =
  | Done of string
  | Found of { dbkey : int; record_type : string }
  | End_of_set
  | Got of (string * Abdm.Value.t) list
  | Stored of { dbkey : int }

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

(* How a set stores its instance-level reference. *)
type set_kind =
  | K_system
  | K_isa
  | K_member_held
  | K_owner_held

let set_kind (session : Session.t) set_name =
  match session.flavor with
  | Mapping.Ab_schema.Net schema ->
    begin
      match Network.Schema.find_set schema set_name with
      | Some s when String.equal s.set_owner Network.Schema.system_owner ->
        Some K_system
      | Some _ -> Some K_member_held
      | None -> None
    end
  | Mapping.Ab_schema.Fun t ->
    match Transformer.Transform.origin_of_set t set_name with
    | Some Transformer.Transform.O_system -> Some K_system
    | Some Transformer.Transform.O_isa -> Some K_isa
    | Some (Transformer.Transform.O_function_member _)
    | Some (Transformer.Transform.O_link _) -> Some K_member_held
    | Some (Transformer.Transform.O_function_owner _) -> Some K_owner_held
    | None -> None

let find_set (session : Session.t) name =
  match Network.Schema.find_set (Session.net_schema session) name with
  | Some s -> Ok s
  | None -> err "unknown set type %S" name

let find_record_type (session : Session.t) name =
  match Network.Schema.find_record (Session.net_schema session) name with
  | Some r -> Ok r
  | None -> err "unknown record type %S" name

let kind_of (session : Session.t) set_name =
  match set_kind session set_name with
  | Some k -> Ok k
  | None -> err "set %S has no kernel mapping" set_name

(* --- currency helpers ------------------------------------------------- *)

let entity_key record_type record ~dbkey =
  Mapping.Ab_schema.entity_key record_type record ~dbkey

let run_unit_entry (session : Session.t) =
  match Network.Currency.run_unit session.cit with
  | Some entry -> Ok entry
  | None -> err "the current of the run-unit is null"

let fetch (session : Session.t) dbkey =
  match Mapping.Kernel.get session.kernel dbkey with
  | Some record -> Ok record
  | None -> err "dangling currency indicator (dbkey %d)" dbkey

let run_unit_of_type (session : Session.t) record_type =
  let* entry = run_unit_entry session in
  if not (String.equal entry.cur_record_type record_type) then
    err "the current of the run-unit is a %s, not a %s" entry.cur_record_type
      record_type
  else
    let* record = fetch session entry.cur_dbkey in
    Ok (entry, record, entity_key record_type record ~dbkey:entry.cur_dbkey)

(* After a successful FIND/STORE: update run-unit, record-type and
   set-type currency indicators from the found record's reference
   attributes. *)
let update_currencies (session : Session.t) (dbkey, record) =
  let record_type =
    match Abdm.Record.file record with
    | Some f -> f
    | None -> "?"
  in
  let entry =
    { Network.Currency.cur_dbkey = dbkey; cur_record_type = record_type }
  in
  Network.Currency.set_run_unit session.cit entry;
  let schema = Session.net_schema session in
  let key = entity_key record_type record ~dbkey in
  List.iter
    (fun (s : Network.Types.set_type) ->
      let kind = set_kind session s.set_name in
      if String.equal s.set_member record_type then begin
        match kind with
        | Some (K_member_held | K_isa) ->
          begin
            match Abdm.Record.value_of record s.set_name with
            | Some (Abdm.Value.Int owner_key) ->
              Network.Currency.set_set_owner session.cit s.set_name owner_key;
              Network.Currency.set_set_member session.cit s.set_name entry
            | Some _ | None ->
              Network.Currency.set_set_member session.cit s.set_name entry
          end
        | Some (K_system | K_owner_held) | None ->
          Network.Currency.set_set_member session.cit s.set_name entry
      end;
      if String.equal s.set_owner record_type then
        Network.Currency.set_set_owner session.cit s.set_name key)
    schema.Network.Schema.sets;
  entry

(* --- set-occurrence retrieval ----------------------------------------- *)

let int_pred attr key =
  Abdm.Predicate.make attr Abdm.Predicate.Eq (Abdm.Value.Int key)

(* All member records of the current occurrence of [set]; generates the
   auxiliary retrieve requests of §VI.B.4. *)
let members_of_set (session : Session.t) (s : Network.Types.set_type)
    ~owner_key =
  let* kind = kind_of session s.set_name in
  match kind with
  | K_system ->
    Ok
      (Mapping.Kernel.select session.kernel
         (Abdm.Query.conj [ Abdm.Predicate.file_eq s.set_member ]))
  | K_member_held | K_isa ->
    begin
      match owner_key with
      | Some key ->
        Ok
          (Mapping.Kernel.select session.kernel
             (Abdm.Query.conj
                [ Abdm.Predicate.file_eq s.set_member; int_pred s.set_name key ]))
      | None -> err "set %S: no current set occurrence (owner is null)" s.set_name
    end
  | K_owner_held ->
    match owner_key with
    | None -> err "set %S: no current set occurrence (owner is null)" s.set_name
    | Some key ->
      (* First ARR: the owner's duplicated copies carry the member keys. *)
      let copies =
        Mapping.Kernel.select session.kernel
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq s.set_owner; int_pred s.set_owner key ])
      in
      let member_keys =
        List.filter_map
          (fun (_, record) ->
            match Abdm.Record.value_of record s.set_name with
            | Some (Abdm.Value.Int k) -> Some k
            | Some _ | None -> None)
          copies
        |> List.sort_uniq Int.compare
      in
      if member_keys = [] then Ok []
      else
        (* Second ARR: fetch the member records by key, one disjunct each. *)
        let query =
          List.map
            (fun k ->
              [ Abdm.Predicate.file_eq s.set_member; int_pred s.set_member k ])
            member_keys
        in
        (* Keep only primary records (key attribute = dbkey would also
           admit copies; primaries are the ones whose key equals their own
           unique key exactly once — take the first record per key). *)
        let records = Mapping.Kernel.select session.kernel query in
        let seen = Hashtbl.create 16 in
        let primaries =
          List.filter
            (fun (dbkey, record) ->
              let k = entity_key s.set_member record ~dbkey in
              if Hashtbl.mem seen k then false
              else begin
                Hashtbl.add seen k ();
                true
              end)
            records
        in
        Ok primaries

(* Primary record of an entity by unique key. *)
let primary_record (session : Session.t) record_type key =
  let records =
    Mapping.Kernel.select session.kernel
      (Abdm.Query.conj
         [ Abdm.Predicate.file_eq record_type; int_pred record_type key ])
  in
  match records with
  | [] -> err "no %s record with key %d" record_type key
  | (dbkey, record) :: _ -> Ok (dbkey, record)

(* --- UWA access -------------------------------------------------------- *)

let uwa_value (session : Session.t) ~record ~item =
  match Network.Uwa.get session.uwa ~record ~item with
  | Some v -> Ok v
  | None -> err "no value for %s IN %s in the user work area" item record

let check_items (session : Session.t) record_type items =
  match Abdm.Descriptor.find_file session.descriptor record_type with
  | None -> err "unknown record type %S" record_type
  | Some file ->
    let known (a : Abdm.Descriptor.attribute) = a.attr_name in
    let names = List.map known file.attributes in
    match List.find_opt (fun item -> not (List.mem item names)) items with
    | Some bad -> err "record %s has no item %S" record_type bad
    | None -> Ok ()

(* --- FIND -------------------------------------------------------------- *)

let exec_find_any session (record : string) items =
  let* () = check_items session record items in
  let* preds =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* v = uwa_value session ~record ~item in
        Ok (Abdm.Predicate.make item Abdm.Predicate.Eq v :: acc))
      (Ok []) items
  in
  let query = Abdm.Query.conj (Abdm.Predicate.file_eq record :: List.rev preds) in
  match Mapping.Kernel.select session.kernel query with
  | [] -> Ok End_of_set
  | ((dbkey, found) :: _) as entries ->
    (* §VI.B.1: the results are placed in the request buffer — under every
       set the record type belongs to as member, so a later FIND
       DUPLICATE/FIRST/NEXT can walk them (the §VI.B.3 assumption) *)
    List.iter
      (fun (s : Network.Types.set_type) ->
        if String.equal s.set_member record then begin
          let rb = Session.set_buffer session s.set_name entries in
          rb.Session.rb_cursor <- 0
        end)
      (Session.net_schema session).Network.Schema.sets;
    let entry = update_currencies session (dbkey, found) in
    Ok (Found { dbkey = entry.cur_dbkey; record_type = entry.cur_record_type })

let exec_find_current session record set =
  let* _s = find_set session set in
  match Network.Currency.set_current session.Session.cit set with
  | Some { cur_member = Some entry; _ }
    when String.equal entry.cur_record_type record ->
    Network.Currency.set_run_unit session.Session.cit entry;
    Ok (Found { dbkey = entry.cur_dbkey; record_type = entry.cur_record_type })
  | Some { cur_member = Some entry; _ } ->
    err "current of set %s is a %s, not a %s" set entry.cur_record_type record
  | Some { cur_member = None; _ } | None ->
    err "set %s has no current member" set

let exec_find_duplicate session set record items =
  let* _s = find_set session set in
  let* () = check_items session record items in
  match Session.buffer session set with
  | None -> err "set %s: no records in the request buffer (FIND FIRST first)" set
  | Some rb ->
    let* current =
      match Network.Currency.set_current session.Session.cit set with
      | Some { cur_member = Some entry; _ } -> Ok entry
      | Some { cur_member = None; _ } | None ->
        err "set %s has no current member" set
    in
    let* cur_record = fetch session current.cur_dbkey in
    let wanted =
      List.map
        (fun item -> item, Abdm.Record.value_of cur_record item)
        items
    in
    let matches (_, candidate) =
      (match Abdm.Record.file candidate with
       | Some f -> String.equal f record
       | None -> false)
      && List.for_all
           (fun (item, v) -> Abdm.Record.value_of candidate item = v)
           wanted
    in
    let n = Array.length rb.rb_entries in
    let rec scan i =
      if i >= n then Ok End_of_set
      else
        let (dbkey, _) as entry = rb.rb_entries.(i) in
        if dbkey <> current.cur_dbkey && matches entry then begin
          rb.rb_cursor <- i;
          let e = update_currencies session entry in
          Ok (Found { dbkey = e.cur_dbkey; record_type = e.cur_record_type })
        end
        else scan (i + 1)
    in
    scan (rb.rb_cursor + 1)

(* Owner-direction iteration (the paper's FIND FIRST person WITHIN
   person_student): walk the distinct owners referenced by the member
   records. Only member-held sets support it. *)
let owner_entries session (s : Network.Types.set_type) =
  let* kind = kind_of session s.set_name in
  match kind with
  | K_member_held | K_isa ->
    let members =
      match Session.buffer session s.set_name with
      | Some rb when Array.length rb.rb_entries > 0 ->
        Array.to_list rb.rb_entries
      | Some _ | None ->
        Mapping.Kernel.select session.kernel
          (Abdm.Query.conj [ Abdm.Predicate.file_eq s.set_member ])
    in
    let keys =
      List.filter_map
        (fun (_, record) ->
          match Abdm.Record.value_of record s.set_name with
          | Some (Abdm.Value.Int k) -> Some k
          | Some _ | None -> None)
        members
      |> List.sort_uniq Int.compare
    in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | key :: rest ->
        let* entry = primary_record session s.set_owner key in
        collect (entry :: acc) rest
    in
    collect [] keys
  | K_system | K_owner_held ->
    err "set %s: cannot iterate owners of this set" s.set_name

let exec_find_position session pos record set =
  let* s = find_set session set in
  let* entries_needed =
    match pos with
    | Ast.First | Ast.Last -> Ok true
    | Ast.Next | Ast.Prior -> Ok false
  in
  let* rb =
    if entries_needed then
      let* entries =
        if String.equal s.set_member record then
          let owner_key =
            match Network.Currency.set_current session.Session.cit set with
            | Some { cur_owner; _ } -> cur_owner
            | None -> None
          in
          members_of_set session s ~owner_key
        else if String.equal s.set_owner record then owner_entries session s
        else
          err "record %s is neither member nor owner of set %s" record set
      in
      Ok (Session.set_buffer session set entries)
    else
      match Session.buffer session set with
      | Some rb -> Ok rb
      | None ->
        err "set %s: no records in the request buffer (FIND FIRST first)" set
  in
  let n = Array.length rb.rb_entries in
  let target =
    match pos with
    | Ast.First -> 0
    | Ast.Last -> n - 1
    | Ast.Next -> rb.rb_cursor + 1
    | Ast.Prior -> rb.rb_cursor - 1
  in
  if target < 0 || target >= n then Ok End_of_set
  else begin
    rb.rb_cursor <- target;
    let entry = update_currencies session rb.rb_entries.(target) in
    Ok (Found { dbkey = entry.cur_dbkey; record_type = entry.cur_record_type })
  end

let exec_find_owner session set =
  let* s = find_set session set in
  if String.equal s.set_owner Network.Schema.system_owner then
    err "set %s is owned by SYSTEM" set
  else
    match Network.Currency.set_current session.Session.cit set with
    | Some { cur_owner = Some key; _ } ->
      let* (dbkey, record) = primary_record session s.set_owner key in
      let entry = update_currencies session (dbkey, record) in
      Ok (Found { dbkey = entry.cur_dbkey; record_type = entry.cur_record_type })
    | Some { cur_owner = None; _ } | None ->
      err "set %s has no current owner" set

let exec_find_within_current session record set items =
  let* s = find_set session set in
  if not (String.equal s.set_member record) then
    err "record %s is not a member of set %s" record set
  else
    let* () = check_items session record items in
    let owner_key =
      match Network.Currency.set_current session.Session.cit set with
      | Some { cur_owner; _ } -> cur_owner
      | None -> None
    in
    let* members = members_of_set session s ~owner_key in
    let* preds =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* v = uwa_value session ~record ~item in
          Ok ((item, v) :: acc))
        (Ok []) items
    in
    let matches (_, candidate) =
      List.for_all
        (fun (item, v) ->
          match Abdm.Record.value_of candidate item with
          | Some actual -> Abdm.Value.equal actual v
          | None -> false)
        preds
    in
    let hits = List.filter matches members in
    let rb = Session.set_buffer session set hits in
    match hits with
    | [] -> Ok End_of_set
    | first :: _ ->
      rb.rb_cursor <- 0;
      let entry = update_currencies session first in
      Ok (Found { dbkey = entry.cur_dbkey; record_type = entry.cur_record_type })

let exec_find session = function
  | Ast.Find_any { record; items } -> exec_find_any session record items
  | Ast.Find_current { record; set } -> exec_find_current session record set
  | Ast.Find_duplicate { set; record; items } ->
    exec_find_duplicate session set record items
  | Ast.Find_position { pos; record; set } ->
    exec_find_position session pos record set
  | Ast.Find_owner { set } -> exec_find_owner session set
  | Ast.Find_within_current { record; set; items } ->
    exec_find_within_current session record set items

(* --- GET --------------------------------------------------------------- *)

let displayable record =
  Abdm.Record.fold
    (fun shown attr v ->
      if String.equal attr Abdm.Keyword.file_attribute then shown
      else (attr, v) :: shown)
    [] record
  |> List.rev

let exec_get session get =
  let* entry = run_unit_entry session in
  let* record = fetch session entry.cur_dbkey in
  let deliver record_type values =
    Network.Uwa.load session.Session.uwa ~record:record_type values;
    Ok (Got values)
  in
  match get with
  | Ast.Get_current -> deliver entry.cur_record_type (displayable record)
  | Ast.Get_record record_type ->
    if String.equal record_type entry.cur_record_type then
      deliver record_type (displayable record)
    else
      err "current of run-unit is a %s, not a %s" entry.cur_record_type
        record_type
  | Ast.Get_items { items; record = record_type } ->
    if not (String.equal record_type entry.cur_record_type) then
      err "current of run-unit is a %s, not a %s" entry.cur_record_type
        record_type
    else
      let* () = check_items session record_type items in
      let values =
        List.map
          (fun item ->
            ( item,
              match Abdm.Record.value_of record item with
              | Some v -> v
              | None -> Abdm.Value.Null ))
          items
      in
      deliver record_type values

(* --- STORE ------------------------------------------------------------- *)

let isa_sets (session : Session.t) record =
  match session.flavor with
  | Mapping.Ab_schema.Fun t -> Transformer.Transform.isa_sets_of_member t record
  | Mapping.Ab_schema.Net _ -> []

let exec_store session record_type =
  let* _r = find_record_type session record_type in
  let* file =
    match Abdm.Descriptor.find_file session.Session.descriptor record_type with
    | Some f -> Ok f
    | None -> err "record type %S has no kernel file" record_type
  in
  (* 1. Duplicate condition (§VI.G): RETRIEVE on items carrying
     DUPLICATES NOT ALLOWED. *)
  let unique_items =
    List.filter_map
      (fun (a : Abdm.Descriptor.attribute) ->
        if a.attr_unique && not (String.equal a.attr_name record_type) then
          match Network.Uwa.get session.Session.uwa ~record:record_type
                  ~item:a.attr_name with
          | Some v -> Some (a.attr_name, v)
          | None -> None
        else None)
      file.attributes
  in
  let* () =
    if unique_items = [] then Ok ()
    else
      let query =
        Abdm.Query.conj
          (Abdm.Predicate.file_eq record_type
           :: List.map
                (fun (item, v) -> Abdm.Predicate.make item Abdm.Predicate.Eq v)
                unique_items)
      in
      match
        Mapping.Kernel.run session.kernel
          (Abdl.Ast.retrieve query [ Abdl.Ast.T_attr record_type ])
      with
      | Abdl.Exec.Rows [] -> Ok ()
      | Abdl.Exec.Rows _ -> err "STORE %s: DUPLICATES NOT ALLOWED" record_type
      | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
        Ok ()
  in
  (* 2. ISA owners must be current (set selection is BY APPLICATION). *)
  let* isa_owner_keys =
    List.fold_left
      (fun acc (s : Network.Types.set_type) ->
        let* acc = acc in
        match Network.Currency.set_current session.Session.cit s.set_name with
        | Some { cur_owner = Some key; _ } -> Ok ((s, key) :: acc)
        | Some { cur_owner = None; _ } | None ->
          err
            "STORE %s: set %s has no current owner (set selection is BY \
             APPLICATION)"
            record_type s.set_name)
      (Ok []) (isa_sets session record_type)
  in
  (* 3. Overlap constraints (§V.E / §VI.G): only {e terminal} subtypes of a
     hierarchy conflict. From each current ISA owner instance we walk UP to
     every ancestor instance, then DOWN to every terminal-subtype record
     the entity already possesses; each such terminal type must be paired
     with the stored type in the Overlap Table. *)
  let* () =
    match session.Session.flavor with
    | Mapping.Ab_schema.Net _ -> Ok ()
    | Mapping.Ab_schema.Fun t
      when not
             (Daplex.Schema.is_terminal t.Transformer.Transform.source
                record_type) ->
      Ok ()
    | Mapping.Ab_schema.Fun t ->
      let schema = t.Transformer.Transform.source in
      let isa_between ~super ~sub =
        List.find_opt
          (fun (s : Network.Types.set_type) ->
            String.equal s.set_owner super
            && String.equal s.set_member sub
            && Transformer.Transform.origin_of_set t s.set_name
               = Some Transformer.Transform.O_isa)
          (Session.net_schema session).Network.Schema.sets
      in
      (* entity keys of [sub] records attached to the [super] instance *)
      let child_instances ~super ~super_key ~sub =
        match isa_between ~super ~sub with
        | None -> []
        | Some s ->
          Mapping.Kernel.select session.kernel
            (Abdm.Query.conj
               [ Abdm.Predicate.file_eq sub; int_pred s.set_name super_key ])
          |> List.map (fun (dbkey, r) -> entity_key sub r ~dbkey)
          |> List.sort_uniq Int.compare
      in
      (* all (type, key) ancestor instances, the given one included *)
      let rec instance_and_ancestors acc (type_name, key) =
        if List.mem (type_name, key) acc then acc
        else
          let acc = (type_name, key) :: acc in
          let record =
            match
              Mapping.Kernel.select session.kernel
                (Abdm.Query.conj
                   [ Abdm.Predicate.file_eq type_name; int_pred type_name key ])
            with
            | (_, r) :: _ -> Some r
            | [] -> None
          in
          match record with
          | None -> acc
          | Some r ->
            List.fold_left
              (fun acc super ->
                match isa_between ~super ~sub:type_name with
                | Some s ->
                  begin
                    match Abdm.Record.value_of r s.set_name with
                    | Some (Abdm.Value.Int super_key) ->
                      instance_and_ancestors acc (super, super_key)
                    | Some _ | None -> acc
                  end
                | None -> acc)
              acc
              (Daplex.Schema.supertypes_of schema type_name)
      in
      (* terminal-subtype record types the instance already has below it *)
      let rec terminals_below (type_name, key) =
        List.concat_map
          (fun (sub : Daplex.Types.subtype) ->
            let instances =
              child_instances ~super:type_name ~super_key:key ~sub:sub.sub_name
            in
            if instances = [] then []
            else if Daplex.Schema.is_terminal schema sub.sub_name then
              [ sub.sub_name ]
            else
              List.concat_map
                (fun k -> terminals_below (sub.sub_name, k))
                instances)
          (Daplex.Schema.subtypes_of schema type_name)
      in
      List.fold_left
        (fun acc ((s : Network.Types.set_type), owner_key) ->
          let* () = acc in
          let roots = instance_and_ancestors [] (s.set_owner, owner_key) in
          let present =
            List.concat_map terminals_below roots
            |> List.sort_uniq String.compare
          in
          List.fold_left
            (fun acc terminal ->
              let* () = acc in
              if
                Transformer.Overlap_table.allowed
                  t.Transformer.Transform.overlap record_type terminal
              then Ok ()
              else
                err
                  "STORE %s: overlap constraint violated (entity already a %s)"
                  record_type terminal)
            (Ok ()) present)
        (Ok ()) isa_owner_keys
  in
  (* 4. Build and INSERT the record: UWA values for items, ISA references
     from the current set occurrences, other references null. *)
  let* shape =
    match Abdm.Descriptor.shape session.Session.descriptor record_type with
    | Some shape -> Ok shape
    | None -> err "record type %S: its kernel file repeats an attribute" record_type
  in
  let value attr =
    if String.equal attr Abdm.Keyword.file_attribute then Abdm.Value.Str record_type
    else
      match
        List.find_map
          (fun ((s : Network.Types.set_type), key) ->
            if String.equal s.set_name attr then Some (Abdm.Value.Int key) else None)
          isa_owner_keys
      with
      | Some v -> v
      | None when String.equal attr record_type ->
        (* the artificial unique key is generated, never user-supplied *)
        Abdm.Value.Null
      | None ->
        Option.value ~default:Abdm.Value.Null
          (Network.Uwa.get session.Session.uwa ~record:record_type ~item:attr)
  in
  let record = Abdm.Record.init shape value in
  match Mapping.Kernel.run session.kernel (Abdl.Ast.Insert record) with
  | Abdl.Exec.Inserted dbkey ->
    (* fix the artificial unique key to the primary record's dbkey *)
    let keyed = Abdm.Record.set record record_type (Abdm.Value.Int dbkey) in
    Mapping.Kernel.replace session.Session.kernel dbkey keyed;
    let _entry = update_currencies session (dbkey, keyed) in
    Ok (Stored { dbkey })
  | Abdl.Exec.Rows _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
    err "STORE %s: kernel refused the INSERT" record_type

(* --- CONNECT / DISCONNECT ---------------------------------------------- *)

let owner_currency (session : Session.t) set =
  match Network.Currency.set_current session.cit set with
  | Some { cur_owner = Some key; _ } -> Ok key
  | Some { cur_owner = None; _ } | None ->
    err "set %s has no current owner occurrence" set

let exec_connect_one session record set =
  let* s = find_set session set in
  let* kind = kind_of session set in
  let* () =
    match s.set_insertion with
    | Network.Types.Ins_manual -> Ok ()
    | Network.Types.Ins_automatic ->
      err "CONNECT: insertion for set %s is AUTOMATIC" set
  in
  let* (entry, _record, member_key) = run_unit_of_type session record in
  let* () =
    if String.equal s.set_member record then Ok ()
    else err "record %s is not a member of set %s" record set
  in
  match kind with
  | K_system | K_isa -> err "CONNECT: set %s is not connectable" set
  | K_member_held ->
    let* owner_key = owner_currency session set in
    let query =
      Abdm.Query.conj
        [ Abdm.Predicate.file_eq record; int_pred record member_key ]
    in
    let _ =
      Mapping.Kernel.run session.kernel
        (Abdl.Ast.Update
           (query, [ Abdm.Modifier.Set_const (set, Abdm.Value.Int owner_key) ]))
    in
    Network.Currency.set_set_owner session.Session.cit set owner_key;
    Network.Currency.set_set_member session.Session.cit set entry;
    Ok (Done (Printf.sprintf "connected %s to %s" record set))
  | K_owner_held ->
    let* owner_key = owner_currency session set in
    if not (String.equal s.set_member record) then
      err "record %s is not a member of set %s" record set
    else begin
      let copies =
        Mapping.Kernel.select session.kernel
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq s.set_owner; int_pred s.set_owner owner_key ])
      in
      let null_copy (_, c) =
        match Abdm.Record.value_of c set with
        | Some Abdm.Value.Null | None -> true
        | Some _ -> false
      in
      if List.exists null_copy copies then begin
        (* §VI.D.2.a cases (1)-(2): fill the null-valued copies *)
        let query =
          Abdm.Query.conj
            [
              Abdm.Predicate.file_eq s.set_owner;
              int_pred s.set_owner owner_key;
              Abdm.Predicate.make set Abdm.Predicate.Eq Abdm.Value.Null;
            ]
        in
        let _ =
          Mapping.Kernel.run session.kernel
            (Abdl.Ast.Update
               ( query,
                 [ Abdm.Modifier.Set_const (set, Abdm.Value.Int member_key) ] ))
        in
        Network.Currency.set_set_member session.Session.cit set entry;
        Ok (Done (Printf.sprintf "connected %s to %s" record set))
      end
      else begin
        (* cases (3)-(4): duplicate the owner record(s) with the new
           member's key in the set attribute *)
        let distinct =
          let seen = Hashtbl.create 8 in
          List.filter
            (fun (_, c) ->
              let shape =
                Abdm.Record.to_string (Abdm.Record.set c set Abdm.Value.Null)
              in
              if Hashtbl.mem seen shape then false
              else begin
                Hashtbl.add seen shape ();
                true
              end)
            copies
        in
        List.iter
          (fun (_, c) ->
            let dup = Abdm.Record.set c set (Abdm.Value.Int member_key) in
            ignore (Mapping.Kernel.run session.kernel (Abdl.Ast.Insert dup)))
          distinct;
        Network.Currency.set_set_member session.Session.cit set entry;
        Ok (Done (Printf.sprintf "connected %s to %s" record set))
      end
    end

let exec_disconnect_one session record set =
  let* s = find_set session set in
  let* kind = kind_of session set in
  let* () =
    match s.set_retention with
    | Network.Types.Ret_optional -> Ok ()
    | Network.Types.Ret_fixed | Network.Types.Ret_mandatory ->
      err "DISCONNECT: retention for set %s is %s" set
        (Network.Types.retention_to_string s.set_retention)
  in
  let* () =
    if String.equal s.set_member record then Ok ()
    else err "record %s is not a member of set %s" record set
  in
  let* (_entry, _record, member_key) = run_unit_of_type session record in
  match kind with
  | K_system | K_isa -> err "DISCONNECT: set %s is not disconnectable" set
  | K_member_held ->
    let base =
      [ Abdm.Predicate.file_eq record; int_pred record member_key ]
    in
    let query =
      match Network.Currency.set_current session.Session.cit set with
      | Some { cur_owner = Some owner_key; _ } ->
        Abdm.Query.conj (base @ [ int_pred set owner_key ])
      | Some { cur_owner = None; _ } | None -> Abdm.Query.conj base
    in
    let _ =
      Mapping.Kernel.run session.kernel
        (Abdl.Ast.Update (query, [ Abdm.Modifier.Set_const (set, Abdm.Value.Null) ]))
    in
    Ok (Done (Printf.sprintf "disconnected %s from %s" record set))
  | K_owner_held ->
    let* owner_key = owner_currency session set in
    let copies =
      Mapping.Kernel.select session.kernel
        (Abdm.Query.conj
           [ Abdm.Predicate.file_eq s.set_owner; int_pred s.set_owner owner_key ])
    in
    let member_keys =
      List.filter_map
        (fun (_, c) ->
          match Abdm.Record.value_of c set with
          | Some (Abdm.Value.Int k) -> Some k
          | Some _ | None -> None)
        copies
      |> List.sort_uniq Int.compare
    in
    let query =
      Abdm.Query.conj
        [
          Abdm.Predicate.file_eq s.set_owner;
          int_pred s.set_owner owner_key;
          int_pred set member_key;
        ]
    in
    if List.length member_keys > 1 then begin
      (* multiple members: delete the copies that reference the member *)
      let _ = Mapping.Kernel.run session.kernel (Abdl.Ast.Delete query) in
      Ok (Done (Printf.sprintf "disconnected %s from %s" record set))
    end
    else begin
      (* singleton function set: null the value out *)
      let _ =
        Mapping.Kernel.run session.kernel
          (Abdl.Ast.Update (query, [ Abdm.Modifier.Set_const (set, Abdm.Value.Null) ]))
      in
      Ok (Done (Printf.sprintf "disconnected %s from %s" record set))
    end

(* CONNECT/DISCONNECT over several sets is all-or-nothing: a constraint
   failure on a later set must not leave earlier sets half-updated. *)
let exec_multi session record sets one =
  Mapping.Kernel.atomically session.Session.kernel (fun () ->
      List.fold_left
        (fun acc set ->
          let* _ = acc in
          one session record set)
        (Ok (Done "")) sets)

(* --- MODIFY ------------------------------------------------------------ *)

let exec_modify session record items =
  let* (_entry, current, key) = run_unit_of_type session record in
  let* items =
    match items with
    | [] ->
      (* whole-record MODIFY: every UWA-supplied item of the template *)
      let template = Network.Uwa.template session.Session.uwa ~record in
      if template = [] then err "MODIFY %s: user work area is empty" record
      else Ok (List.map fst template)
    | items ->
      let* () = check_items session record items in
      Ok items
  in
  let* () =
    if List.mem record items then
      err "MODIFY %s: cannot modify the record key attribute" record
    else Ok ()
  in
  ignore current;
  let query =
    Abdm.Query.conj [ Abdm.Predicate.file_eq record; int_pred record key ]
  in
  (* one UPDATE request per modified field, as in §VI.F *)
  let* () =
    List.fold_left
      (fun acc item ->
        let* () = acc in
        let* v = uwa_value session ~record ~item in
        let _ =
          Mapping.Kernel.run session.kernel
            (Abdl.Ast.Update (query, [ Abdm.Modifier.Set_const (item, v) ]))
        in
        Ok ())
      (Ok ()) items
  in
  Ok (Done (Printf.sprintf "modified %d item(s) of %s" (List.length items) record))

(* --- ERASE ------------------------------------------------------------- *)

let exec_erase session record =
  let* (_entry, _current, key) = run_unit_of_type session record in
  let schema = Session.net_schema session in
  (* CODASYL constraint: the record may not own a non-empty set
     occurrence. For every set owned by this record type, look for member
     records referencing the key. *)
  let owned =
    List.filter
      (fun (s : Network.Types.set_type) -> String.equal s.set_owner record)
      schema.Network.Schema.sets
  in
  let* () =
    List.fold_left
      (fun acc (s : Network.Types.set_type) ->
        let* () = acc in
        let* kind = kind_of session s.set_name in
        match kind with
        | K_member_held | K_isa ->
          let query =
            Abdm.Query.conj
              [ Abdm.Predicate.file_eq s.set_member; int_pred s.set_name key ]
          in
          begin
            match
              Mapping.Kernel.run session.kernel
                (Abdl.Ast.retrieve query [ Abdl.Ast.T_attr s.set_name ])
            with
            | Abdl.Exec.Rows [] -> Ok ()
            | Abdl.Exec.Rows _ ->
              err "ERASE %s: owner of non-empty set occurrence %s" record
                s.set_name
            | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
              Ok ()
          end
        | K_owner_held ->
          (* the record's own copies carry the references *)
          let query =
            Abdm.Query.conj
              [
                Abdm.Predicate.file_eq record;
                int_pred record key;
                Abdm.Predicate.make s.set_name Abdm.Predicate.Neq
                  Abdm.Value.Null;
              ]
          in
          begin
            match
              Mapping.Kernel.run session.kernel
                (Abdl.Ast.retrieve query [ Abdl.Ast.T_attr s.set_name ])
            with
            | Abdl.Exec.Rows [] -> Ok ()
            | Abdl.Exec.Rows _ ->
              err "ERASE %s: owner of non-empty set occurrence %s" record
                s.set_name
            | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
              Ok ()
          end
        | K_system -> Ok ())
      (Ok ()) owned
  in
  (* Daplex constraint: the entity may not be referenced by a database
     function — owner-held sets in which this record is the member store
     references to it in the owner's file. *)
  let referencing =
    List.filter
      (fun (s : Network.Types.set_type) ->
        String.equal s.set_member record
        && set_kind session s.set_name = Some K_owner_held)
      schema.Network.Schema.sets
  in
  let* () =
    List.fold_left
      (fun acc (s : Network.Types.set_type) ->
        let* () = acc in
        let query =
          Abdm.Query.conj
            [ Abdm.Predicate.file_eq s.set_owner; int_pred s.set_name key ]
        in
        match
          Mapping.Kernel.run session.kernel
            (Abdl.Ast.retrieve query [ Abdl.Ast.T_attr s.set_name ])
        with
        | Abdl.Exec.Rows [] -> Ok ()
        | Abdl.Exec.Rows _ ->
          err "ERASE %s: entity is referenced by function set %s" record
            s.set_name
        | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
          Ok ())
      (Ok ()) referencing
  in
  (* Collect the doomed dbkeys (the primary and its duplicated copies)
     before deleting, so stale currency can be nulled. *)
  let victims =
    Mapping.Kernel.select session.kernel
      (Abdm.Query.conj [ Abdm.Predicate.file_eq record; int_pred record key ])
  in
  let query =
    Abdm.Query.conj [ Abdm.Predicate.file_eq record; int_pred record key ]
  in
  let deleted =
    match Mapping.Kernel.run session.kernel (Abdl.Ast.Delete query) with
    | Abdl.Exec.Deleted n -> n
    | Abdl.Exec.Rows _ | Abdl.Exec.Inserted _ | Abdl.Exec.Updated _ -> 0
  in
  List.iter
    (fun (dbkey, _) -> Network.Currency.forget_key session.Session.cit dbkey)
    victims;
  Session.drop_buffers session;
  Ok (Done (Printf.sprintf "erased %d record(s) of %s" deleted record))

(* --- dispatch ----------------------------------------------------------- *)

let rec execute session (stmt : Ast.stmt) =
  match stmt with
  | Ast.Perform_until_eof body ->
    (* the COBOL idiom of §VI.B.4: repeat the block until a FIND inside it
       runs off its set (the host program's EOF flag). Iterations are
       capped defensively: a block containing no FIND would never set
       EOF. *)
    let max_iterations = 10_000 in
    let fetched = ref [] in
    let rec iterate count =
      if count >= max_iterations then
        err "PERFORM UNTIL EOF: no FIND reached end of set after %d iterations"
          max_iterations
      else
        let rec step = function
          | [] -> `Continue
          | stmt :: rest ->
            match execute session stmt with
            | Ok End_of_set -> `Eof
            | Ok (Got values) ->
              let line =
                values
                |> List.map (fun (attr, v) ->
                       Printf.sprintf "%s=%s" attr (Abdm.Value.to_display v))
                |> String.concat ", "
              in
              fetched := line :: !fetched;
              step rest
            | Ok _ -> step rest
            | Error msg -> `Failed msg
        in
        match step body with
        | `Eof ->
          let report =
            Printf.sprintf "performed %d iteration(s)" count
            :: List.rev !fetched
          in
          Ok (Done (String.concat "\n" report))
        | `Failed msg -> Error msg
        | `Continue -> iterate (count + 1)
    in
    iterate 0
  | Ast.Move { value; item; record } ->
    Network.Uwa.move session.Session.uwa ~record ~item value;
    Ok (Done (Printf.sprintf "moved %s to %s IN %s" (Abdm.Value.to_string value) item record))
  | Ast.Find find -> exec_find session find
  | Ast.Get get -> exec_get session get
  | Ast.Store record -> exec_store session record
  | Ast.Connect { record; sets } ->
    exec_multi session record sets exec_connect_one
  | Ast.Disconnect { record; sets } ->
    exec_multi session record sets exec_disconnect_one
  | Ast.Modify { record; items } -> exec_modify session record items
  | Ast.Erase { all = true; record } ->
    err "ERASE ALL %s: not translated (CODASYL and Daplex constraints clash)"
      record
  | Ast.Erase { all = false; record } -> exec_erase session record

let run_program session stmts =
  List.map (fun stmt -> stmt, execute session stmt) stmts

let outcome_to_string = function
  | Done msg -> if String.equal msg "" then "ok" else msg
  | Found { dbkey; record_type } ->
    Printf.sprintf "found %s (dbkey %d)" record_type dbkey
  | End_of_set -> "end of set"
  | Got values ->
    values
    |> List.map (fun (attr, v) ->
           Printf.sprintf "%s=%s" attr (Abdm.Value.to_display v))
    |> String.concat ", "
  | Stored { dbkey } -> Printf.sprintf "stored (dbkey %d)" dbkey

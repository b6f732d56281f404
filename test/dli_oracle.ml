(* The DL/I engine that the key-path walk of [Hierarchical.Engine]
   replaced: the oracle its equivalence property compares against. Every
   GU, GN and GNP rebuilds the whole hierarchic sequence with one
   RETRIEVE per segment instance and searches it; ancestors are fetched
   one by one to test path SSAs. *)

open Hierarchical

type t = {
  kernel : Mapping.Kernel.t;
  hie_schema : Types.schema;
  descriptor : Abdm.Descriptor.t;
  mutable position : (string * int) option;
  mutable parentage : (string * int) option;
}

type outcome = Engine.outcome =
  | Found of {
      segment : string;
      key : int;
      fields : (string * Abdm.Value.t) list;
    }
  | Not_found
  | Inserted of int
  | Replaced of int
  | Deleted of int

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let create kernel hie_schema =
  {
    kernel;
    hie_schema;
    descriptor = Types.descriptor hie_schema;
    position = None;
    parentage = None;
  }

let retrieve t query = Retrieve_oracle.retrieve t.kernel query

let int_pred attr key =
  Abdm.Predicate.make attr Abdm.Predicate.Eq (Abdm.Value.Int key)

let segment t name =
  match Types.find_segment t.hie_schema name with
  | Some s -> Ok s
  | None -> err "unknown segment type %S" name

(* The hierarchic sequence: root instances in key order, each followed by
   its subtrees, child segment types in declaration order. *)
let sequence t =
  let rec visit seg_name (key, record) =
    (seg_name, key, record)
    :: List.concat_map
         (fun (child : Types.segment) ->
           retrieve t
             (Abdm.Query.conj
                [ Abdm.Predicate.file_eq child.seg_name; int_pred seg_name key ])
           |> List.concat_map (fun kr -> visit child.seg_name kr))
         (Types.children t.hie_schema seg_name)
  in
  List.concat_map
    (fun (root : Types.segment) ->
      retrieve t (Abdm.Query.conj [ Abdm.Predicate.file_eq root.seg_name ])
      |> List.concat_map (fun kr -> visit root.seg_name kr))
    (Types.roots t.hie_schema)

let qual_satisfied record (q : Dli_ast.qualification) =
  match Abdm.Record.value_of record q.q_field with
  | Some v -> Abdm.Predicate.eval q.q_op v q.q_value
  | None -> false

let ssa_matches seg_name record (ssa : Dli_ast.ssa) =
  String.equal seg_name ssa.ssa_segment
  && (match ssa.ssa_qual with
      | Some q -> qual_satisfied record q
      | None -> true)

(* the record of one instance, by segment type and key *)
let instance t seg_name key =
  match
    retrieve t
      (Abdm.Query.conj [ Abdm.Predicate.file_eq seg_name; int_pred seg_name key ])
  with
  | kr :: _ -> Some kr
  | [] -> None

(* (segment, key, record) ancestors, nearest first *)
let rec ancestor_chain t seg_name record =
  match Types.find_segment t.hie_schema seg_name with
  | Some { seg_parent = Some parent; _ } ->
    begin
      match Abdm.Record.value_of record parent with
      | Some (Abdm.Value.Int parent_key) ->
        begin
          match instance t parent parent_key with
          | Some (_, parent_record) ->
            (parent, parent_key, parent_record)
            :: ancestor_chain t parent parent_record
          | None -> []
        end
      | Some _ | None -> []
    end
  | Some { seg_parent = None; _ } | None -> []

(* Does the instance's ancestor path satisfy the leading SSAs (in order,
   outermost first)? *)
let path_satisfied t seg_name record path_ssas =
  let ancestors = List.rev (ancestor_chain t seg_name record) in
  (* ancestors: root first *)
  let rec align ssas ancestors =
    match ssas, ancestors with
    | [], _ -> true
    | _ :: _, [] -> false
    | (ssa : Dli_ast.ssa) :: ssa_rest, (aseg, _, arecord) :: anc_rest ->
      if String.equal ssa.ssa_segment aseg then
        ssa_matches aseg arecord ssa && align ssa_rest anc_rest
      else align ssas anc_rest
  in
  ignore seg_name;
  align path_ssas ancestors

(* a record's keywords in order, as a list *)
let keyword_list record =
  List.rev (Abdm.Record.fold (fun acc a v -> Abdm.Keyword.make a v :: acc) [] record)

let found t seg_name key record =
  t.position <- Some (seg_name, key);
  t.parentage <- Some (seg_name, key);
  let fields =
    List.filter_map
      (fun (kw : Abdm.Keyword.t) ->
        if String.equal kw.attribute Abdm.Keyword.file_attribute then None
        else Some (kw.attribute, kw.value))
      (keyword_list record)
  in
  Ok (Found { segment = seg_name; key; fields })

let exec_gu t ssas =
  let* target, path =
    match List.rev ssas with
    | target :: rev_path -> Ok (target, List.rev rev_path)
    | [] -> err "GU: missing SSA"
  in
  let* _ = segment t target.Dli_ast.ssa_segment in
  let* () =
    List.fold_left
      (fun acc (ssa : Dli_ast.ssa) ->
        let* () = acc in
        let* _ = segment t ssa.ssa_segment in
        Ok ())
      (Ok ()) path
  in
  let seq = sequence t in
  let hit =
    List.find_opt
      (fun (seg_name, _, record) ->
        ssa_matches seg_name record target
        && path_satisfied t seg_name record path)
      seq
  in
  match hit with
  | Some (seg_name, key, record) -> found t seg_name key record
  | None ->
    t.position <- None;
    t.parentage <- None;
    Ok Not_found

let after_position seq position =
  match position with
  | None -> seq
  | Some (seg, key) ->
    let rec drop = function
      | [] -> []
      | (s, k, _) :: rest when String.equal s seg && k = key -> rest
      | _ :: rest -> drop rest
    in
    drop seq

let exec_gn t ssa =
  let* () =
    match ssa with
    | Some (s : Dli_ast.ssa) ->
      let* _ = segment t s.ssa_segment in
      Ok ()
    | None -> Ok ()
  in
  let seq = after_position (sequence t) t.position in
  let hit =
    List.find_opt
      (fun (seg_name, _, record) ->
        match ssa with
        | Some s -> ssa_matches seg_name record s
        | None -> true)
      seq
  in
  match hit with
  | Some (seg_name, key, record) -> found t seg_name key record
  | None -> Ok Not_found

let exec_gnp t ssa =
  let* parent =
    match t.parentage with
    | Some p -> Ok p
    | None -> err "GNP: no parentage established (issue GU/GN first)"
  in
  let* () =
    match ssa with
    | Some (s : Dli_ast.ssa) ->
      let* _ = segment t s.ssa_segment in
      Ok ()
    | None -> Ok ()
  in
  let descendant_of (seg_name, record) (pseg, pkey) =
    List.exists
      (fun (aseg, akey, _) -> String.equal aseg pseg && akey = pkey)
      (ancestor_chain t seg_name record)
  in
  (* GNP scans forward from the current position but never past the
     parent's subtree *)
  let seq = after_position (sequence t) t.position in
  let rec scan = function
    | [] -> Ok Not_found
    | (seg_name, key, record) :: rest ->
      if not (descendant_of (seg_name, record) parent) then Ok Not_found
      else if
        match ssa with
        | Some s -> ssa_matches seg_name record s
        | None -> true
      then begin
        (* GNP retains parentage: position advances, parent stays *)
        t.position <- Some (seg_name, key);
        let fields =
          List.filter_map
            (fun (kw : Abdm.Keyword.t) ->
              if String.equal kw.attribute Abdm.Keyword.file_attribute then None
              else Some (kw.attribute, kw.value))
            (keyword_list record)
        in
        Ok (Found { segment = seg_name; key; fields })
      end
      else scan rest
  in
  scan seq

let exec_isrt t path seg_name fields =
  let* seg = segment t seg_name in
  (* validate the fields *)
  let* () =
    List.fold_left
      (fun acc (f, _) ->
        let* () = acc in
        if
          List.exists
            (fun (fd : Types.field) -> String.equal fd.field_name f)
            seg.seg_fields
        then Ok ()
        else err "segment %s has no field %S" seg_name f)
      (Ok ()) fields
  in
  let* parent_keyword =
    match seg.seg_parent, path with
    | None, [] -> Ok []
    | None, _ :: _ -> err "ISRT %s: root segments take no parent path" seg_name
    | Some parent, _ :: _ ->
      (* resolve the parent instance with a GU over the path *)
      let* resolved = exec_gu t path in
      begin
        match resolved with
        | Found { segment = found_seg; key; _ } ->
          if String.equal found_seg parent then
            Ok [ Abdm.Keyword.make parent (Abdm.Value.Int key) ]
          else
            err "ISRT %s: path resolves to a %s, expected parent %s" seg_name
              found_seg parent
        | Not_found -> err "ISRT %s: parent path not found" seg_name
        | Inserted _ | Replaced _ | Deleted _ ->
          err "ISRT %s: unexpected path resolution" seg_name
      end
    | Some parent, [] ->
      (* fall back on current parentage *)
      match t.parentage with
      | Some (pseg, pkey) when String.equal pseg parent ->
        Ok [ Abdm.Keyword.make parent (Abdm.Value.Int pkey) ]
      | Some (pseg, _) ->
        err "ISRT %s: current parentage is a %s, expected %s" seg_name pseg
          parent
      | None -> err "ISRT %s: no parent path and no parentage" seg_name
  in
  let keywords =
    (Abdm.Keyword.file seg_name
     :: Abdm.Keyword.make seg_name Abdm.Value.Null
     :: List.map
          (fun (fd : Types.field) ->
            let v =
              match List.assoc_opt fd.field_name fields with
              | Some v -> v
              | None -> Abdm.Value.Null
            in
            Abdm.Keyword.make fd.field_name v)
          seg.seg_fields)
    @ parent_keyword
  in
  let record = Abdm.Record.make keywords in
  let* () =
    match Abdm.Descriptor.validate t.descriptor record with
    | Ok () -> Ok ()
    | Error msg -> err "ISRT %s: %s" seg_name msg
  in
  match Mapping.Kernel.run t.kernel (Abdl.Ast.Insert record) with
  | Abdl.Exec.Inserted key ->
    let keyed = Abdm.Record.set record seg_name (Abdm.Value.Int key) in
    Mapping.Kernel.replace t.kernel key keyed;
    t.position <- Some (seg_name, key);
    (* parentage stays at the new segment's parent so sibling ISRTs chain *)
    t.parentage <-
      (match parent_keyword with
       | [ (kw : Abdm.Keyword.t) ] ->
         begin
           match kw.value with
           | Abdm.Value.Int pkey -> Some (kw.attribute, pkey)
           | Abdm.Value.Float _ | Abdm.Value.Str _ | Abdm.Value.Null ->
             Some (seg_name, key)
         end
       | _ -> Some (seg_name, key));
    Ok (Inserted key)
  | Abdl.Exec.Rows _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
    err "ISRT %s: kernel refused the insert" seg_name

let exec_repl t fields =
  match t.position with
  | None -> err "REPL: no current segment"
  | Some (seg_name, key) ->
    let* seg = segment t seg_name in
    let* () =
      List.fold_left
        (fun acc (f, _) ->
          let* () = acc in
          if
            List.exists
              (fun (fd : Types.field) -> String.equal fd.field_name f)
              seg.seg_fields
          then Ok ()
          else err "REPL: segment %s has no field %S" seg_name f)
        (Ok ()) fields
    in
    let query =
      Abdm.Query.conj [ Abdm.Predicate.file_eq seg_name; int_pred seg_name key ]
    in
    let modifiers =
      List.map (fun (f, v) -> Abdm.Modifier.Set_const (f, v)) fields
    in
    begin
      match Mapping.Kernel.run t.kernel (Abdl.Ast.Update (query, modifiers)) with
      | Abdl.Exec.Updated n -> Ok (Replaced n)
      | Abdl.Exec.Rows _ | Abdl.Exec.Inserted _ | Abdl.Exec.Deleted _ ->
        err "REPL: kernel returned a non-update result"
    end

let exec_dlet t =
  match t.position with
  | None -> err "DLET: no current segment"
  | Some (seg_name, key) ->
    (* delete the segment and its whole subtree *)
    let total = ref 0 in
    let rec delete seg_name key =
      List.iter
        (fun (child : Types.segment) ->
          retrieve t
            (Abdm.Query.conj
               [ Abdm.Predicate.file_eq child.seg_name; int_pred seg_name key ])
          |> List.iter (fun (child_key, _) -> delete child.seg_name child_key))
        (Types.children t.hie_schema seg_name);
      match
        Mapping.Kernel.run t.kernel
          (Abdl.Ast.Delete
             (Abdm.Query.conj
                [ Abdm.Predicate.file_eq seg_name; int_pred seg_name key ]))
      with
      | Abdl.Exec.Deleted n -> total := !total + n
      | Abdl.Exec.Rows _ | Abdl.Exec.Inserted _ | Abdl.Exec.Updated _ -> ()
    in
    delete seg_name key;
    t.position <- None;
    t.parentage <- None;
    Ok (Deleted !total)

let execute t = function
  | Dli_ast.Gu ssas -> exec_gu t ssas
  | Dli_ast.Gn ssa -> exec_gn t ssa
  | Dli_ast.Gnp ssa -> exec_gnp t ssa
  | Dli_ast.Isrt { path; segment; fields } -> exec_isrt t path segment fields
  | Dli_ast.Repl fields -> exec_repl t fields
  | Dli_ast.Dlet -> exec_dlet t

let position t = t.position

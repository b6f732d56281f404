(* A key path locates one segment instance: (segment type, key) pairs,
   the instance itself first and its root last. *)
type path = (string * int) list

type t = {
  kernel : Mapping.Kernel.t;
  hie_schema : Types.schema;
  descriptor : Abdm.Descriptor.t;
  mutable position : path;  (* [] when there is no current segment *)
  mutable parentage : path;
}

type outcome =
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
    position = [];
    parentage = [];
  }

let schema t = t.hie_schema

let int_pred attr key =
  Abdm.Predicate.make attr Abdm.Predicate.Eq (Abdm.Value.Int key)

let segment t name =
  match Types.find_segment t.hie_schema name with
  | Some s -> Ok s
  | None -> err "unknown segment type %S" name

let check_fields (seg : Types.segment) names =
  match
    List.find_opt
      (fun f ->
        not
          (List.exists
             (fun (fd : Types.field) -> String.equal fd.field_name f)
             seg.seg_fields))
      names
  with
  | Some f -> err "segment %s has no field %S" seg.seg_name f
  | None -> Ok ()

(* An SSA's segment type and the predicate its qualification adds to that
   type's RETRIEVE. *)
let ssa_preds t (ssa : Dli_ast.ssa) =
  let* seg = segment t ssa.ssa_segment in
  match ssa.ssa_qual with
  | None -> Ok (seg.seg_name, [])
  | Some q ->
    let* () = check_fields seg [ q.q_field ] in
    Ok (seg.seg_name, [ Abdm.Predicate.make q.q_field q.q_op q.q_value ])

(* The segment types directly under the instance at [path]: its child
   types, or the root types under the empty path. *)
let types_under t = function
  | [] -> Types.roots t.hie_schema
  | (seg, _) :: _ -> Types.children t.hie_schema seg

(* The hierarchic sequence under [parent] over the segment types [types],
   lazily: each type's instances in key order (after key [after] for the
   first type), each followed by its subtree. [plan] says which types the
   walk enters and what each one's RETRIEVE adds to
   [(FILE = seg) AND (parent = key)]; a type is retrieved once per parent
   instance, when the caller reads that far. *)
let rec walk t plan parent types after : (path * Abdm.Record.t) Seq.t =
  match types with
  | [] -> Seq.empty
  | (seg : Types.segment) :: rest ->
    let later = walk t plan parent rest None in
    match plan seg.seg_name with
    | None -> later
    | Some preds ->
      fun () ->
        let parent_pred =
          match parent with
          | (pseg, pkey) :: _ -> [ int_pred pseg pkey ]
          | [] -> []
        in
        let after_pred =
          match after with
          | Some key ->
            [ Abdm.Predicate.make seg.seg_name Abdm.Predicate.Gt (Abdm.Value.Int key) ]
          | None -> []
        in
        let rows =
          Mapping.Kernel.select t.kernel
            (Abdm.Query.conj
               ((Abdm.Predicate.file_eq seg.seg_name :: parent_pred)
                @ after_pred @ preds))
        in
        Seq.append
          (Seq.concat_map
             (fun (key, record) ->
               let path = (seg.seg_name, key) :: parent in
               Seq.cons (path, record) (walk t plan path (types_under t path) None))
             (List.to_seq rows))
          later ()

(* The walk from the instance at [path] on: its subtree, then at each
   level up to [stop] (the whole database for []) the later instances of
   that level's type and the later types under the same parent. *)
let walk_from t plan ~stop path =
  let rec climb path =
    match path with
    | (seg, key) :: parent when path <> stop ->
      let rec from_seg = function
        | (s : Types.segment) :: rest when not (String.equal s.seg_name seg) ->
          from_seg rest
        | types -> types
      in
      Seq.append
        (walk t plan parent (from_seg (types_under t parent)) (Some key))
        (climb parent)
    | _ -> Seq.empty
  in
  Seq.append (walk t plan path (types_under t path) None) (climb path)

(* A search for [target]: the walk enters [target]'s type, with its
   predicates, and its ancestor types, each with the predicates of its
   path SSA; no other type. *)
let toward t (target, preds) path_preds =
  let ancestors = Types.ancestors t.hie_schema target in
  fun seg ->
    if String.equal seg target then Some preds
    else if List.mem seg ancestors then
      Some (Option.value (List.assoc_opt seg path_preds) ~default:[])
    else None

let found t path record =
  t.position <- path;
  let segment, key = List.hd path in
  let fields =
    Abdm.Record.fold
      (fun fields attr v ->
        if String.equal attr Abdm.Keyword.file_attribute then fields
        else (attr, v) :: fields)
      [] record
    |> List.rev
  in
  Ok (Found { segment; key; fields })

let is_segment name (path, _) = String.equal (fst (List.hd path)) name

let rec all f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = all f rest in
    Ok (y :: ys)

let exec_gu t ssas =
  let* target, path =
    match List.rev ssas with
    | target :: rev_path -> Ok (target, List.rev rev_path)
    | [] -> err "GU: missing SSA"
  in
  let* ((target_seg, _) as target) = ssa_preds t target in
  let* path = all (ssa_preds t) path in
  (* the path SSAs must name ancestors of the target, outermost first *)
  let rec aligned path chain =
    match path, chain with
    | [], _ -> true
    | _ :: _, [] -> false
    | (seg, _) :: path_rest, aseg :: chain_rest ->
      if String.equal seg aseg then aligned path_rest chain_rest
      else aligned path chain_rest
  in
  let hit =
    if not (aligned path (List.rev (Types.ancestors t.hie_schema target_seg)))
    then None
    else
      Seq.find (is_segment target_seg)
        (walk_from t (toward t target path) ~stop:[] [])
  in
  match hit with
  | Some (path, record) ->
    t.parentage <- path;
    found t path record
  | None ->
    t.position <- [];
    t.parentage <- [];
    Ok Not_found

(* The next instance in hierarchic sequence that the SSA selects, from
   the current position on but not past the end of [stop]'s subtree. *)
let next t ssa ~stop =
  let* ssa = all (ssa_preds t) (Option.to_list ssa) in
  let plan, hit =
    match ssa with
    | [ ((target, _) as ssa) ] -> toward t ssa [], is_segment target
    | _ -> (fun _ -> Some []), fun _ -> true
  in
  Ok (Seq.find hit (walk_from t plan ~stop t.position))

let exec_gn t ssa =
  let* hit = next t ssa ~stop:[] in
  match hit with
  | Some (path, record) ->
    t.parentage <- path;
    found t path record
  | None -> Ok Not_found

(* GNP advances the position within the parentage, which stays *)
let exec_gnp t ssa =
  let* () =
    if t.parentage = [] then
      err "GNP: no parentage established (issue GU/GN first)"
    else Ok ()
  in
  let* hit = next t ssa ~stop:t.parentage in
  match hit with
  | Some (path, record) -> found t path record
  | None -> Ok Not_found

let exec_isrt t path seg_name fields =
  let* seg = segment t seg_name in
  let* () = check_fields seg (List.map fst fields) in
  let* parent =
    match seg.seg_parent, path with
    | None, [] -> Ok []
    | None, _ :: _ -> err "ISRT %s: root segments take no parent path" seg_name
    | Some parent, _ :: _ ->
      (* resolve the parent instance with a GU over the path *)
      let* resolved = exec_gu t path in
      begin
        match resolved with
        | Found { segment = found_seg; _ } when String.equal found_seg parent ->
          Ok t.position
        | Found { segment = found_seg; _ } ->
          err "ISRT %s: path resolves to a %s, expected parent %s" seg_name
            found_seg parent
        | Not_found | Inserted _ | Replaced _ | Deleted _ ->
          err "ISRT %s: parent path not found" seg_name
      end
    | Some parent, [] ->
      (* fall back on current parentage *)
      match t.parentage with
      | (pseg, _) :: _ when String.equal pseg parent -> Ok t.parentage
      | (pseg, _) :: _ ->
        err "ISRT %s: current parentage is a %s, expected %s" seg_name pseg
          parent
      | [] -> err "ISRT %s: no parent path and no parentage" seg_name
  in
  (* the segment's file template: FILE, its key, its fields, then the
     parent's key unless it is a root *)
  let* shape =
    match Abdm.Descriptor.shape t.descriptor seg_name with
    | Some shape -> Ok shape
    | None -> err "ISRT %s: no kernel file for the segment" seg_name
  in
  let value attr =
    if String.equal attr Abdm.Keyword.file_attribute then Abdm.Value.Str seg_name
    else if String.equal attr seg_name then Abdm.Value.Null
    else
      match parent with
      | (pseg, pkey) :: _ when String.equal attr pseg -> Abdm.Value.Int pkey
      | _ :: _ | [] ->
        Option.value ~default:Abdm.Value.Null (List.assoc_opt attr fields)
  in
  let record = Abdm.Record.init shape value in
  let* () =
    match Abdm.Descriptor.validate t.descriptor record with
    | Ok () -> Ok ()
    | Error msg -> err "ISRT %s: %s" seg_name msg
  in
  match Mapping.Kernel.run t.kernel (Abdl.Ast.Insert record) with
  | Abdl.Exec.Inserted key ->
    let keyed = Abdm.Record.set record seg_name (Abdm.Value.Int key) in
    Mapping.Kernel.replace t.kernel key keyed;
    t.position <- (seg_name, key) :: parent;
    (* parentage stays at the new segment's parent so sibling ISRTs chain *)
    t.parentage <- (if parent = [] then t.position else parent);
    Ok (Inserted key)
  | Abdl.Exec.Rows _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
    err "ISRT %s: kernel refused the insert" seg_name

let exec_repl t fields =
  match t.position with
  | [] -> err "REPL: no current segment"
  | (seg_name, key) :: _ ->
    let* seg = segment t seg_name in
    let* () =
      Result.map_error (( ^ ) "REPL: ") (check_fields seg (List.map fst fields))
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
  | [] -> err "DLET: no current segment"
  | (seg_name, key) :: _ ->
    (* delete the segment and its whole subtree *)
    let total = ref 0 in
    let rec delete seg_name key =
      List.iter
        (fun (child : Types.segment) ->
          Mapping.Kernel.select t.kernel
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
    t.position <- [];
    t.parentage <- [];
    Ok (Deleted !total)

let execute t = function
  | Dli_ast.Gu ssas -> exec_gu t ssas
  | Dli_ast.Gn ssa -> exec_gn t ssa
  | Dli_ast.Gnp ssa -> exec_gnp t ssa
  | Dli_ast.Isrt { path; segment; fields } -> exec_isrt t path segment fields
  | Dli_ast.Repl fields -> exec_repl t fields
  | Dli_ast.Dlet -> exec_dlet t

let run t src =
  match Dli_parser.call src with
  | call -> execute t call
  | exception Dli_parser.Parse_error msg -> Error ("parse error: " ^ msg)

let run_program t src =
  List.map (fun call -> call, execute t call) (Dli_parser.program src)

let position t =
  match t.position with
  | current :: _ -> Some current
  | [] -> None

let outcome_to_string = function
  | Found { segment; key; fields } ->
    Printf.sprintf "%s (key %d): %s" segment key
      (String.concat ", "
         (List.map
            (fun (f, v) -> Printf.sprintf "%s=%s" f (Abdm.Value.to_display v))
            fields))
  | Not_found -> "status GE (not found)"
  | Inserted key -> Printf.sprintf "inserted (key %d)" key
  | Replaced n -> Printf.sprintf "replaced %d segment(s)" n
  | Deleted n -> Printf.sprintf "deleted %d segment(s)" n

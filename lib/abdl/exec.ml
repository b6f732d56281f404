type row = {
  dbkey : Abdm.Store.dbkey option;
  values : (string * Abdm.Value.t) list;
}

type result =
  | Inserted of Abdm.Store.dbkey
  | Deleted of int
  | Updated of int
  | Rows of row list

let project targets (key, record) =
  let value attr =
    match Abdm.Record.value_of record attr with
    | Some v -> v
    | None -> Abdm.Value.Null
  in
  let values =
    List.concat_map
      (fun target ->
        match target with
        | Ast.T_all ->
          List.rev
            (Abdm.Record.fold (fun acc attr v -> (attr, v) :: acc) [] record)
        | Ast.T_attr attr -> [ attr, value attr ]
        | Ast.T_agg (agg, attr) ->
          (* Aggregates never reach projection; keep the shape total. *)
          [ Ast.target_to_string (Ast.T_agg (agg, attr)), value attr ])
      targets
  in
  { dbkey = Some key; values }

module Value_map = Map.Make (Abdm.Value)

(* Group selected records by the BY attribute (all in one group without
   one), in ascending group-key order. Groups are keyed on the value
   itself; a group reports the first key it met, so Int 3 and Float 3.0
   (equal values) share one group. *)
let group_matches by matches =
  match by with
  | None -> [ Abdm.Value.Null, matches ]
  | Some attr ->
    let key_of (_, record) =
      match Abdm.Record.value_of record attr with
      | Some v -> v
      | None -> Abdm.Value.Null
    in
    let groups =
      List.fold_left
        (fun groups m ->
          let k = key_of m in
          match Value_map.find_opt k groups with
          | Some (_, members) ->
            members := m :: !members;
            groups
          | None -> Value_map.add k (k, ref [ m ]) groups)
        Value_map.empty matches
    in
    Value_map.bindings groups
    |> List.map (fun (_, (k, members)) -> k, List.rev !members)

let aggregate_rows (retrieve : Ast.retrieve) matches =
  let groups = group_matches retrieve.by matches in
  let row_of_group (group_key, members) =
    let agg_value agg attr =
      let fold state (_, record) =
        match Abdm.Record.value_of record attr with
        | Some v -> Aggregate.add state v
        | None -> state
      in
      Aggregate.finalize agg (List.fold_left fold Aggregate.empty members)
    in
    let target_values target =
      match target with
      | Ast.T_agg (agg, attr) ->
        [ Ast.target_to_string target, agg_value agg attr ]
      | Ast.T_attr attr ->
        (* A plain attribute among aggregates reports the first group
           member's value. *)
        let v =
          match members with
          | (_, record) :: _ ->
            begin
              match Abdm.Record.value_of record attr with
              | Some v -> v
              | None -> Abdm.Value.Null
            end
          | [] -> Abdm.Value.Null
        in
        [ attr, v ]
      | Ast.T_all -> []
    in
    let values = List.concat_map target_values retrieve.targets in
    let values =
      match retrieve.by with
      | Some attr when not (List.mem_assoc attr values) ->
        (attr, group_key) :: values
      | Some _ | None -> values
    in
    { dbkey = None; values }
  in
  List.map row_of_group groups

let shape_rows (retrieve : Ast.retrieve) matches =
  if Ast.has_aggregate retrieve.targets then aggregate_rows retrieve matches
  else
    let matches =
      match retrieve.by with
      | None -> matches
      | Some attr ->
        let key_of (_, record) =
          match Abdm.Record.value_of record attr with
          | Some v -> v
          | None -> Abdm.Value.Null
        in
        List.stable_sort
          (fun a b -> Abdm.Value.compare (key_of a) (key_of b))
          matches
    in
    List.map (project retrieve.targets) matches

let join_rows (rc : Ast.retrieve_common) ~left ~right =
  (* index the right side by join-attribute value *)
  let table = ref Value_map.empty in
  List.iter
    (fun (_, record) ->
      match Abdm.Record.value_of record rc.rc_right_attr with
      | Some v when not (Abdm.Value.is_null v) ->
        table :=
          Value_map.update v
            (fun bucket -> Some (record :: Option.value ~default:[] bucket))
            !table
      | Some _ | None -> ())
    right;
  (* the joined row's keywords: the left record's, then the right
     record's, a right attribute the left one also has renamed
     [file.attr] *)
  let merge left_record right_record =
    let right_file =
      match Abdm.Record.file right_record with
      | Some f -> f
      | None -> "right"
    in
    let pairs record rename =
      List.rev (Abdm.Record.fold (fun acc attr v -> (rename attr, v) :: acc) [] record)
    in
    pairs left_record Fun.id
    @ pairs right_record (fun attr ->
          if Option.is_some (Abdm.Record.value_of left_record attr) then
            right_file ^ "." ^ attr
          else attr)
  in
  let project_merged merged =
    let values =
      List.concat_map
        (fun target ->
          match target with
          | Ast.T_all -> merged
          | Ast.T_attr attr ->
            [ ( attr,
                match List.assoc_opt attr merged with
                | Some v -> v
                | None -> Abdm.Value.Null ) ]
          | Ast.T_agg (_, _) ->
            (* aggregates are not defined over joins; render null *)
            [ Ast.target_to_string target, Abdm.Value.Null ])
        rc.rc_targets
    in
    { dbkey = None; values }
  in
  List.concat_map
    (fun (_, left_record) ->
      match Abdm.Record.value_of left_record rc.rc_left_attr with
      | Some v when not (Abdm.Value.is_null v) ->
        begin
          match Value_map.find_opt v !table with
          | Some bucket ->
            List.rev_map
              (fun right_record -> project_merged (merge left_record right_record))
              bucket
          | None -> []
        end
      | Some _ | None -> [])
    left

let run store (request : Ast.request) =
  match request with
  | Ast.Insert record -> Inserted (Abdm.Store.insert store record)
  | Ast.Delete query -> Deleted (Abdm.Store.delete store query)
  | Ast.Update (query, modifiers) ->
    Updated (Abdm.Store.update store query modifiers)
  | Ast.Retrieve retrieve ->
    let matches = Abdm.Store.select store retrieve.query in
    Rows (shape_rows retrieve matches)
  | Ast.Retrieve_common rc ->
    let left = Abdm.Store.select store rc.rc_left in
    let right = Abdm.Store.select store rc.rc_right in
    Rows (join_rows rc ~left ~right)

let run_transaction store requests = List.map (run store) requests

let row_to_string row =
  let cells =
    List.map
      (fun (attr, v) -> Printf.sprintf "%s=%s" attr (Abdm.Value.to_display v))
      row.values
  in
  let prefix =
    match row.dbkey with
    | Some key -> Printf.sprintf "[%d] " key
    | None -> ""
  in
  prefix ^ String.concat ", " cells

let result_to_string = function
  | Inserted key -> Printf.sprintf "INSERTED dbkey=%d" key
  | Deleted n -> Printf.sprintf "DELETED %d" n
  | Updated n -> Printf.sprintf "UPDATED %d" n
  | Rows rows ->
    if rows = [] then "NO RECORDS"
    else String.concat "\n" (List.map row_to_string rows)

let pp_result ppf r = Format.pp_print_string ppf (result_to_string r)

type row = {
  dbkey : Abdm.Store.dbkey option;
  values : (string * Abdm.Value.t) list;
}

type result =
  | Inserted of Abdm.Store.dbkey
  | Deleted of int
  | Updated of int
  | Rows of row list

let value record attr =
  match Abdm.Record.value_of record attr with
  | Some v -> v
  | None -> Abdm.Value.Null

let project targets (key, record) =
  let values =
    List.concat_map
      (fun target ->
        match target with
        | Ast.T_all ->
          List.rev
            (Abdm.Record.fold (fun acc attr v -> (attr, v) :: acc) [] record)
        | Ast.T_attr attr -> [ attr, value record attr ]
        | Ast.T_agg (agg, attr) ->
          (* Aggregates never reach projection; keep the shape total. *)
          [ Ast.target_to_string (Ast.T_agg (agg, attr)), value record attr ])
      targets
  in
  { dbkey = Some key; values }

module Value_map = Map.Make (Abdm.Value)

(* One group of an aggregate RETRIEVE: its lowest-key member, and one
   state per aggregate target, in target order. Groups are keyed on the
   BY value itself and report their first member's, so Int 3 and Float
   3.0 (equal values) share one group. *)
type group = {
  first : Abdm.Store.dbkey * Abdm.Record.t;
  states : Aggregate.state array;
}

type share =
  | Run of (Abdm.Store.dbkey * Abdm.Record.t) list
      (* plain targets: matches by BY value, then key *)
  | Groups of group Value_map.t

(* the order of a plain RETRIEVE's rows: by key, or by the BY value with
   the key breaking ties (a stable sort of the key-ordered matches) *)
let order (retrieve : Ast.retrieve) =
  match retrieve.by with
  | None -> fun (a, _) (b, _) -> Int.compare a b
  | Some attr ->
    fun (ka, ra) (kb, rb) ->
      match Abdm.Value.compare (value ra attr) (value rb attr) with
      | 0 -> Int.compare ka kb
      | c -> c

(* [matches] come in key order, so a group's first member is its
   lowest-key one, and its states fold in key order *)
let share (retrieve : Ast.retrieve) matches =
  if not (Ast.has_aggregate retrieve.targets) then
    Run (if retrieve.by = None then matches else List.sort (order retrieve) matches)
  else
    let attrs =
      Array.of_list
        (List.filter_map
           (function Ast.T_agg (_, attr) -> Some attr | Ast.T_attr _ | Ast.T_all -> None)
           retrieve.targets)
    in
    let group first =
      let states = Array.make (Array.length attrs) Aggregate.empty in
      for i = 0 to Array.length attrs - 1 do
        states.(i) <- Aggregate.add states.(i) (value (snd first) attrs.(i))
      done;
      { first; states }
    in
    let fold groups ((_, record) as m) =
      let k = match retrieve.by with Some attr -> value record attr | None -> Abdm.Value.Null in
      match Value_map.find k groups with
      | g ->
        for i = 0 to Array.length attrs - 1 do
          g.states.(i) <- Aggregate.add g.states.(i) (value record attrs.(i))
        done;
        groups
      | exception Not_found -> Value_map.add k (group m) groups
    in
    match List.fold_left fold Value_map.empty matches with
    | groups when retrieve.by = None && Value_map.is_empty groups ->
      (* without BY an aggregate answers one row even over no match: an
         empty partition holds one empty group, its key sorting last *)
      Groups (Value_map.singleton Abdm.Value.Null (group (max_int, Abdm.Record.make [])))
    | groups -> Groups groups

(* the lower-key group's states go first, so a tie between extremes
   keeps the value of the partition that met its group first *)
let merge_groups g h =
  let g, h = if fst g.first < fst h.first then g, h else h, g in
  { first = g.first; states = Array.map2 Aggregate.merge g.states h.states }

let group_row (retrieve : Ast.retrieve) { first = _, record; states } =
  (* a plain attribute among aggregates reports the first member's value *)
  let rec values i = function
    | [] -> []
    | (Ast.T_agg (agg, _) as target) :: rest ->
      (Ast.target_to_string target, Aggregate.finalize agg states.(i)) :: values (i + 1) rest
    | Ast.T_attr attr :: rest -> (attr, value record attr) :: values i rest
    | Ast.T_all :: rest -> values i rest
  in
  let values = values 0 retrieve.targets in
  let values =
    match retrieve.by with
    | Some attr when not (List.mem_assoc attr values) -> (attr, value record attr) :: values
    | Some _ | None -> values
  in
  { dbkey = None; values }

let rows (retrieve : Ast.retrieve) shares =
  let by_order = order retrieve in
  let combine a b =
    match a, b with
    | Run a, Run b -> Run (List.merge by_order a b)
    | Groups a, Groups b -> Groups (Value_map.union (fun _ g h -> Some (merge_groups g h)) a b)
    | Run _, Groups _ | Groups _, Run _ -> invalid_arg "Exec.rows: shares of two requests"
  in
  match shares with
  | [] -> invalid_arg "Exec.rows: no share"
  | s :: rest ->
    match List.fold_left combine s rest with
    | Run matches -> List.map (project retrieve.targets) matches
    | Groups groups ->
      List.rev (Value_map.fold (fun _ g acc -> group_row retrieve g :: acc) groups [])

let join_rows (rc : Ast.retrieve_common) ~left ~right =
  (* index the right side by join-attribute value *)
  let table =
    List.fold_left
      (fun table (_, record) ->
        match value record rc.rc_right_attr with
        | Abdm.Value.Null -> table
        | v ->
          Value_map.update v
            (fun bucket -> Some (record :: Option.value ~default:[] bucket))
            table)
      Value_map.empty right
  in
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
                Option.value ~default:Abdm.Value.Null (List.assoc_opt attr merged) ) ]
          | Ast.T_agg (_, _) ->
            (* aggregates are not defined over joins; render null *)
            [ Ast.target_to_string target, Abdm.Value.Null ])
        rc.rc_targets
    in
    { dbkey = None; values }
  in
  List.concat_map
    (fun (_, left_record) ->
      match Value_map.find_opt (value left_record rc.rc_left_attr) table with
      | Some bucket ->
        List.rev_map
          (fun right_record -> project_merged (merge left_record right_record))
          bucket
      | None -> [])
    left

let run store (request : Ast.request) =
  match request with
  | Ast.Insert record -> Inserted (Abdm.Store.insert store record)
  | Ast.Delete query -> Deleted (Abdm.Store.delete store query)
  | Ast.Update (query, modifiers) ->
    Updated (Abdm.Store.update store query modifiers)
  | Ast.Retrieve retrieve ->
    Rows (rows retrieve [ share retrieve (Abdm.Store.select store retrieve.query) ])
  | Ast.Retrieve_common rc ->
    let left = Abdm.Store.select store rc.rc_left in
    let right = Abdm.Store.select store rc.rc_right in
    Rows (join_rows rc ~left ~right)

(* "[key] attr=value, attr=value": [indent] follows every newline
   written, a string value's included *)
let add_row ?indent buf row =
  (match row.dbkey with
  | Some key ->
    Buffer.add_char buf '[';
    Abdm.Value.add_int buf key;
    Buffer.add_string buf "] "
  | None -> ());
  List.iteri
    (fun i (attr, v) ->
      if i > 0 then Buffer.add_string buf ", ";
      Abdm.Value.add_text ?indent buf attr;
      Buffer.add_char buf '=';
      Abdm.Value.add_display ?indent buf v)
    row.values

let add_result ?(indent = "") buf = function
  | Inserted key ->
    Buffer.add_string buf "INSERTED dbkey=";
    Abdm.Value.add_int buf key
  | Deleted n ->
    Buffer.add_string buf "DELETED ";
    Abdm.Value.add_int buf n
  | Updated n ->
    Buffer.add_string buf "UPDATED ";
    Abdm.Value.add_int buf n
  | Rows [] -> Buffer.add_string buf "NO RECORDS"
  | Rows rows ->
    List.iteri
      (fun i row ->
        if i > 0 then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf indent
        end;
        add_row ~indent buf row)
      rows

let result_to_string result =
  let buf = Buffer.create 64 in
  add_result buf result;
  Buffer.contents buf

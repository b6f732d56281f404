(* The two-pass loader that preceded the one-write [Mapping.Loader]: the
   oracle its equivalence tests compare against. Pass one inserts each
   entity's primary record with its scalars and fixes its own key with a
   replace; pass two wires the references with a select-based UPDATE on
   the record's own key, reads it back and inserts the §VI.D.2 copies;
   the LINK records come last. Returns the (type, row key) -> key table. *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let function_set transform type_name fn_name =
  Transformer.Transform.set_of_function transform ~type_name ~fn:fn_name

let isa_set transform ~super ~sub =
  List.find_opt
    (fun (s : Network.Types.set_type) ->
      String.equal s.set_owner super
      && String.equal s.set_member sub
      && Transformer.Transform.origin_of_set transform s.set_name
         = Some Transformer.Transform.O_isa)
    transform.Transformer.Transform.net.Network.Schema.sets

let range_of_function schema type_name fn_name =
  match Daplex.Schema.find_function schema type_name fn_name with
  | None -> fail "loader: %s has no function %s" type_name fn_name
  | Some fn ->
    match Daplex.Schema.classify schema fn with
    | Daplex.Schema.C_single_valued r | Daplex.Schema.C_multi_valued r -> Some r
    | Daplex.Schema.C_scalar | Daplex.Schema.C_scalar_multi -> None

(* All-null primary record template for a row's type. *)
let primary_template flavor descriptor type_name =
  match Abdm.Descriptor.find_file descriptor type_name with
  | None -> fail "loader: unknown record type %s" type_name
  | Some file ->
    ignore flavor;
    Abdm.Record.make
      (Abdm.Keyword.file type_name
       :: List.map
            (fun (a : Abdm.Descriptor.attribute) ->
              Abdm.Keyword.make a.attr_name Abdm.Value.Null)
            file.attributes)

let rec cartesian = function
  | [] -> [ [] ]
  | (attr, values) :: rest ->
    let tails = cartesian rest in
    List.concat_map
      (fun v -> List.map (fun tail -> (attr, v) :: tail) tails)
      values

let load kernel transform rows =
  let schema = transform.Transformer.Transform.source in
  let flavor = Mapping.Ab_schema.Fun transform in
  let descriptor = Mapping.Ab_schema.descriptor flavor in
  let keys = Hashtbl.create 64 in
  let key_of type_name row_key =
    match Hashtbl.find_opt keys (type_name, row_key) with
    | Some k -> k
    | None -> fail "loader: unresolved reference %s/%s" type_name row_key
  in
  let validate record =
    match Abdm.Descriptor.validate descriptor record with
    | Ok () -> ()
    | Error msg -> fail "loader: %s" msg
  in

  (* Pass 1: primary records with scalar values; key := own dbkey. *)
  let pass1 (row : Daplex.University.row) =
    let base = primary_template flavor descriptor row.row_type in
    let with_scalars =
      List.fold_left
        (fun record (fn_name, value) ->
          match (value : Daplex.University.fvalue) with
          | Daplex.University.Scalar v -> Abdm.Record.set record fn_name v
          | Daplex.University.Scalars _ | Daplex.University.Ref _
          | Daplex.University.Refs _ -> record)
        base row.row_values
    in
    let k = Mapping.Kernel.insert kernel with_scalars in
    let keyed = Abdm.Record.set with_scalars row.row_type (Abdm.Value.Int k) in
    validate keyed;
    Mapping.Kernel.replace kernel k keyed;
    if Hashtbl.mem keys (row.row_type, row.row_key) then
      fail "loader: duplicate row key %s/%s" row.row_type row.row_key;
    Hashtbl.replace keys (row.row_type, row.row_key) k
  in
  List.iter pass1 rows;

  (* Pass 2: references, multi-valued expansion, LINK records. *)
  let pending_links = ref [] in
  let pass2 (row : Daplex.University.row) =
    let type_name = row.row_type in
    let k = key_of type_name row.row_key in
    let self_query =
      Abdm.Query.conj
        [
          Abdm.Predicate.file_eq type_name;
          Abdm.Predicate.make type_name Abdm.Predicate.Eq (Abdm.Value.Int k);
        ]
    in
    let simple_updates = ref [] in
    let dims = ref [] in
    (* ISA references *)
    List.iter
      (fun (super, super_row) ->
        match isa_set transform ~super ~sub:type_name with
        | None -> fail "loader: no ISA set %s -> %s" super type_name
        | Some s ->
          let v = Abdm.Value.Int (key_of super super_row) in
          simple_updates :=
            Abdm.Modifier.Set_const (s.set_name, v) :: !simple_updates)
      row.row_isa;
    (* function values *)
    List.iter
      (fun (fn_name, value) ->
        match (value : Daplex.University.fvalue) with
        | Daplex.University.Scalar _ -> ()
        | Daplex.University.Scalars values ->
          if values <> [] then dims := (fn_name, values) :: !dims
        | Daplex.University.Ref target ->
          begin
            match range_of_function schema type_name fn_name with
            | None -> fail "loader: %s.%s is not entity-valued" type_name fn_name
            | Some range ->
              match function_set transform type_name fn_name with
              | None -> fail "loader: no set for %s.%s" type_name fn_name
              | Some s ->
                let v = Abdm.Value.Int (key_of range target) in
                simple_updates :=
                  Abdm.Modifier.Set_const (s.set_name, v) :: !simple_updates
          end
        | Daplex.University.Refs targets ->
          match range_of_function schema type_name fn_name with
          | None -> fail "loader: %s.%s is not entity-valued" type_name fn_name
          | Some range ->
            match function_set transform type_name fn_name with
            | None -> fail "loader: no set for %s.%s" type_name fn_name
            | Some s ->
              match
                Transformer.Transform.origin_of_set transform s.set_name
              with
              | Some (Transformer.Transform.O_function_owner _) ->
                let values =
                  List.map
                    (fun target -> Abdm.Value.Int (key_of range target))
                    targets
                in
                if values <> [] then dims := (s.set_name, values) :: !dims
              | Some (Transformer.Transform.O_link _) ->
                (* Emit LINK records once, from the link's A side. *)
                let link =
                  List.find_opt
                    (fun (l : Transformer.Transform.link) ->
                      String.equal (snd l.link_side_a) type_name
                      && String.equal (fst l.link_side_a) fn_name)
                    transform.Transformer.Transform.links
                in
                begin
                  match link with
                  | Some l ->
                    List.iter
                      (fun target ->
                        pending_links :=
                          ( l.link_record,
                            l.link_set_a,
                            k,
                            l.link_set_b,
                            key_of range target )
                          :: !pending_links)
                      targets
                  | None -> ()  (* the B side: A side already emitted *)
                end
              | Some Transformer.Transform.O_system
              | Some Transformer.Transform.O_isa
              | Some (Transformer.Transform.O_function_member _)
              | None ->
                fail "loader: %s.%s is multi-valued but set %s is not"
                  type_name fn_name s.set_name)
      row.row_values;
    if !simple_updates <> [] then
      ignore (Mapping.Kernel.update kernel self_query !simple_updates);
    (* Multi-valued expansion: first combination updates the primary
       record; the rest insert duplicated copies (§VI.D.2). *)
    match !dims with
    | [] -> ()
    | dims ->
      begin
        match cartesian dims with
        | [] -> ()
        | first :: rest ->
          let set_all record combo =
            List.fold_left
              (fun r (attr, v) -> Abdm.Record.set r attr v)
              record combo
          in
          let first_mods =
            List.map (fun (attr, v) -> Abdm.Modifier.Set_const (attr, v)) first
          in
          ignore (Mapping.Kernel.update kernel self_query first_mods);
          begin
            match Mapping.Kernel.get kernel k with
            | None -> fail "loader: primary record %d vanished" k
            | Some base ->
              List.iter
                (fun combo ->
                  let copy = set_all base combo in
                  validate copy;
                  ignore (Mapping.Kernel.insert kernel copy))
                rest
          end
      end
  in
  List.iter pass2 rows;
  (* LINK records *)
  List.iter
    (fun (link_record, set_a, key_a, set_b, key_b) ->
      let record =
        Abdm.Record.make
          [
            Abdm.Keyword.file link_record;
            Abdm.Keyword.make set_a (Abdm.Value.Int key_a);
            Abdm.Keyword.make set_b (Abdm.Value.Int key_b);
          ]
      in
      validate record;
      ignore (Mapping.Kernel.insert kernel record))
    (List.rev !pending_links);
  keys

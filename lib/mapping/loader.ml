type key_map = (string * string, int) Hashtbl.t

let find_key map ~type_name ~row_key = Hashtbl.find_opt map (type_name, row_key)

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

(* A type's primary record layout: the FILE keyword, then the
   descriptor's attributes in order — one shape shared by every record
   of the type — with each attribute's position in it. *)
type template = {
  shape : Abdm.Record.shape;
  width : int;
  file_value : Abdm.Value.t;
  slot : (string, int) Hashtbl.t;
}

let template descriptor type_name =
  match Abdm.Descriptor.find_file descriptor type_name with
  | None -> fail "loader: unknown record type %s" type_name
  | Some file ->
    let attrs =
      List.map (fun (a : Abdm.Descriptor.attribute) -> a.attr_name) file.attributes
    in
    let slot = Hashtbl.create 16 in
    List.iteri
      (fun i attr ->
        if Hashtbl.mem slot attr then
          fail "loader: duplicate attribute %S in file %S" attr type_name;
        Hashtbl.replace slot attr (i + 1))
      attrs;
    {
      shape = Abdm.Record.shape (Abdm.Keyword.file_attribute :: attrs);
      width = List.length attrs + 1;
      file_value = Abdm.Value.Str type_name;
      slot;
    }

let record_of tmpl values = Abdm.Record.of_values tmpl.shape (Array.copy values)

let rec cartesian = function
  | [] -> [ [] ]
  | (attr, values) :: rest ->
    let tails = cartesian rest in
    List.concat_map
      (fun v -> List.map (fun tail -> (attr, v) :: tail) tails)
      values

(* Memoizes a schema lookup by its two string arguments. *)
let memo f =
  let table = Hashtbl.create 16 in
  fun a b ->
    match Hashtbl.find_opt table (a, b) with
    | Some v -> v
    | None ->
      let v = f a b in
      Hashtbl.add table (a, b) v;
      v

(* One store write per record. Keys are fixed up front — [Kernel.insert]
   would give the primary records consecutive keys in row order — so
   each primary record is built complete (scalars, its own key, ISA and
   function references, the first multi-valued combination) and stored
   once under its key. The §VI.D.2 copies and the LINK records then take
   the keys after, in row order, exactly as a two-pass load would. *)
let load kernel transform rows =
  if Kernel.size kernel <> 0 then invalid_arg "Loader.load: the kernel is not empty";
  let schema = transform.Transformer.Transform.source in
  let descriptor = Ab_schema.descriptor (Ab_schema.Fun transform) in
  let templates = Hashtbl.create 16 in
  let template_of type_name =
    match Hashtbl.find_opt templates type_name with
    | Some tmpl -> tmpl
    | None ->
      let tmpl = template descriptor type_name in
      Hashtbl.add templates type_name tmpl;
      tmpl
  in
  let isa_set = memo (fun super sub -> isa_set transform ~super ~sub) in
  let function_set = memo (function_set transform) in
  let range_of_function = memo (range_of_function schema) in
  let keys : key_map = Hashtbl.create (List.length rows) in
  let first_key = Kernel.next_key kernel in
  List.iteri
    (fun i (row : Daplex.University.row) ->
      if Hashtbl.mem keys (row.row_type, row.row_key) then
        fail "loader: duplicate row key %s/%s" row.row_type row.row_key;
      Hashtbl.replace keys (row.row_type, row.row_key) (first_key + i))
    rows;
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
  let copies = ref [] in
  let pending_links = ref [] in
  let primary (row : Daplex.University.row) =
    let type_name = row.row_type in
    let tmpl = template_of type_name in
    let values = Array.make tmpl.width Abdm.Value.Null in
    values.(0) <- tmpl.file_value;
    let set attr v =
      match Hashtbl.find_opt tmpl.slot attr with
      | Some i -> values.(i) <- v
      | None ->
        fail "loader: attribute %S not in template of file %S" attr type_name
    in
    List.iter
      (fun (fn_name, value) ->
        match (value : Daplex.University.fvalue) with
        | Daplex.University.Scalar v -> set fn_name v
        | Daplex.University.Scalars _ | Daplex.University.Ref _
        | Daplex.University.Refs _ -> ())
      row.row_values;
    let k = key_of type_name row.row_key in
    set type_name (Abdm.Value.Int k);
    (* references, applied in reverse discovery order as one UPDATE's
       modifier list was: on a repeated attribute the first one wins *)
    let refs = ref [] in
    let dims = ref [] in
    List.iter
      (fun (super, super_row) ->
        match isa_set super type_name with
        | None -> fail "loader: no ISA set %s -> %s" super type_name
        | Some s -> refs := (s.set_name, key_of super super_row) :: !refs)
      row.row_isa;
    List.iter
      (fun (fn_name, value) ->
        match (value : Daplex.University.fvalue) with
        | Daplex.University.Scalar _ -> ()
        | Daplex.University.Scalars values ->
          if values <> [] then dims := (fn_name, values) :: !dims
        | Daplex.University.Ref target ->
          begin
            match range_of_function type_name fn_name with
            | None -> fail "loader: %s.%s is not entity-valued" type_name fn_name
            | Some range ->
              match function_set type_name fn_name with
              | None -> fail "loader: no set for %s.%s" type_name fn_name
              | Some s -> refs := (s.set_name, key_of range target) :: !refs
          end
        | Daplex.University.Refs targets ->
          match range_of_function type_name fn_name with
          | None -> fail "loader: %s.%s is not entity-valued" type_name fn_name
          | Some range ->
            match function_set type_name fn_name with
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
    List.iter (fun (attr, key) -> set attr (Abdm.Value.Int key)) !refs;
    (* Multi-valued expansion: the primary record holds the first
       combination; each other one is a duplicated copy (§VI.D.2). *)
    let combos = match !dims with [] -> [] | dims -> cartesian dims in
    let set_combo = List.iter (fun (attr, v) -> set attr v) in
    (match combos with [] -> () | first :: _ -> set_combo first);
    let record = record_of tmpl values in
    validate record;
    Kernel.insert_keyed kernel k record;
    match combos with
    | [] | [ _ ] -> ()
    | _ :: rest ->
      List.iter
        (fun combo ->
          set_combo combo;
          let copy = record_of tmpl values in
          validate copy;
          copies := copy :: !copies)
        rest
  in
  List.iter primary rows;
  List.iter (fun copy -> ignore (Kernel.insert kernel copy)) (List.rev !copies);
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
      ignore (Kernel.insert kernel record))
    (List.rev !pending_links);
  keys

let university ?(backends = 0) ?scale () =
  let schema = Daplex.University.schema () in
  let transform = Transformer.Transform.transform schema in
  let kernel =
    if backends >= 1 then Kernel.multi ~name:"university" backends
    else Kernel.single ~name:"university" ()
  in
  let rows =
    match scale with
    | Some n -> Daplex.University.scaled_rows n
    | None -> Daplex.University.rows
  in
  let keys = load kernel transform rows in
  kernel, transform, keys

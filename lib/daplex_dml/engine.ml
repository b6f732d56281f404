type t = {
  kernel : Mapping.Kernel.t;
  transform : Transformer.Transform.t;
  descriptor : Abdm.Descriptor.t;
}

type outcome =
  | Printed of (string * Abdm.Value.t) list list
  | Created of int
  | Destroyed of int

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let create kernel transform =
  {
    kernel;
    transform;
    descriptor = Mapping.Ab_schema.descriptor (Mapping.Ab_schema.Fun transform);
  }

let schema t = t.transform.Transformer.Transform.source

let int_pred attr key =
  Abdm.Predicate.make attr Abdm.Predicate.Eq (Abdm.Value.Int key)

(* All stored copies of one entity instance. *)
let records_of t type_name key =
  Mapping.Kernel.select t.kernel
    (Abdm.Query.conj [ Abdm.Predicate.file_eq type_name; int_pred type_name key ])

(* The type (itself or an ancestor) declaring [fn]. *)
let rec declaring_type t type_name fn =
  if Daplex.Schema.find_function (schema t) type_name fn <> None then
    Some type_name
  else
    List.find_map
      (fun super -> declaring_type t super fn)
      (Daplex.Schema.supertypes_of (schema t) type_name)

let isa_set_between t ~super ~sub =
  List.find_opt
    (fun (s : Network.Types.set_type) ->
      String.equal s.set_owner super
      && String.equal s.set_member sub
      && Transformer.Transform.origin_of_set t.transform s.set_name
         = Some Transformer.Transform.O_isa)
    t.transform.Transformer.Transform.net.Network.Schema.sets

(* Instance keys of [target_type] reached by walking the ISA references up
   from instance (type_name, key) — value inheritance. *)
let rec ascend t (type_name, key) target_type =
  if String.equal type_name target_type then [ key ]
  else
    let copies = records_of t type_name key in
    List.concat_map
      (fun super ->
        match isa_set_between t ~super ~sub:type_name with
        | None -> []
        | Some s ->
          let super_keys =
            List.filter_map
              (fun (_, r) ->
                match Abdm.Record.value_of r s.set_name with
                | Some (Abdm.Value.Int k) -> Some k
                | Some _ | None -> None)
              copies
            |> List.sort_uniq Int.compare
          in
          List.concat_map
            (fun k -> ascend t (super, k) target_type)
            super_keys)
      (Daplex.Schema.supertypes_of (schema t) type_name)

(* Apply one function to an instance; scalar results are values, entity
   results are (range_type, key) references. *)
type applied =
  | Values of Abdm.Value.t list
  | Refs of string * int list

let apply_function t (type_name, key) fn =
  match declaring_type t type_name fn with
  | None -> err "%s is not a function of %s (or its supertypes)" fn type_name
  | Some declared ->
    let instance_keys = ascend t (type_name, key) declared in
    let decl =
      match Daplex.Schema.find_function (schema t) declared fn with
      | Some d -> d
      | None -> assert false
    in
    let copies = List.concat_map (fun k -> records_of t declared k) instance_keys in
    match Daplex.Schema.classify (schema t) decl with
    | Daplex.Schema.C_scalar | Daplex.Schema.C_scalar_multi ->
      let values =
        List.filter_map
          (fun (_, r) ->
            match Abdm.Record.value_of r fn with
            | Some Abdm.Value.Null | None -> None
            | Some v -> Some v)
          copies
      in
      let dedup =
        List.fold_left
          (fun acc v ->
            if List.exists (Abdm.Value.equal v) acc then acc else v :: acc)
          [] values
        |> List.rev
      in
      Ok (Values dedup)
    | Daplex.Schema.C_single_valued range | Daplex.Schema.C_multi_valued range ->
      match
        Transformer.Transform.set_of_function t.transform ~type_name:declared
          ~fn
      with
      | None -> err "no set transformed from function %s" fn
      | Some s ->
        match Transformer.Transform.origin_of_set t.transform s.set_name with
        | Some (Transformer.Transform.O_function_member _) ->
          (* instance's own records hold the reference *)
          let keys =
            List.filter_map
              (fun (_, r) ->
                match Abdm.Record.value_of r s.set_name with
                | Some (Abdm.Value.Int k) -> Some k
                | Some _ | None -> None)
              copies
            |> List.sort_uniq Int.compare
          in
          Ok (Refs (range, keys))
        | Some (Transformer.Transform.O_function_owner _) ->
          let keys =
            List.filter_map
              (fun (_, r) ->
                match Abdm.Record.value_of r s.set_name with
                | Some (Abdm.Value.Int k) -> Some k
                | Some _ | None -> None)
              copies
            |> List.sort_uniq Int.compare
          in
          Ok (Refs (range, keys))
        | Some (Transformer.Transform.O_link _) ->
          (* LINK records: this side's set attribute holds our key; the
             other side's holds the target. *)
          let link =
            List.find_opt
              (fun (l : Transformer.Transform.link) ->
                String.equal l.link_record s.set_member)
              t.transform.Transformer.Transform.links
          in
          begin
            match link with
            | None -> err "set %s has no LINK record" s.set_name
            | Some l ->
              (* the link's two set names disambiguate even a
                 self-referential many-to-many *)
              let other_set =
                if String.equal l.link_set_a s.set_name then l.link_set_b
                else l.link_set_a
              in
              let targets = ref [] in
              List.iter
                (fun k ->
                  let links =
                    Mapping.Kernel.select t.kernel
                      (Abdm.Query.conj
                         [
                           Abdm.Predicate.file_eq l.link_record;
                           int_pred s.set_name k;
                         ])
                  in
                  List.iter
                    (fun (_, r) ->
                      match Abdm.Record.value_of r other_set with
                      | Some (Abdm.Value.Int target) ->
                        targets := target :: !targets
                      | Some _ | None -> ())
                    links)
                instance_keys;
              Ok (Refs (range, List.sort_uniq Int.compare !targets))
          end
        | Some Transformer.Transform.O_system
        | Some Transformer.Transform.O_isa
        | None -> err "set %s is not a function set" s.set_name

(* Evaluate a whole path from an instance; returns the final value list. *)
let eval_path t (type_name, key) fns =
  let rec go frontier = function
    | [] ->
      (* an entity-valued path ends in references; expose the keys *)
      Ok
        (List.concat_map
           (fun (_, keys) -> List.map (fun k -> Abdm.Value.Int k) keys)
           frontier)
    | fn :: rest ->
      let* applied =
        List.fold_left
          (fun acc (tname, keys) ->
            let* acc = acc in
            List.fold_left
              (fun acc key ->
                let* acc = acc in
                let* a = apply_function t (tname, key) fn in
                Ok (a :: acc))
              (Ok acc) keys)
          (Ok []) frontier
      in
      if rest = [] then
        (* terminal application: scalars end the path *)
        let scalars =
          List.concat_map
            (function
              | Values vs -> vs
              | Refs (_, keys) -> List.map (fun k -> Abdm.Value.Int k) keys)
            applied
        in
        Ok scalars
      else
        let next_frontier =
          List.filter_map
            (function
              | Refs (range, keys) -> Some (range, keys)
              | Values _ -> None)
            applied
        in
        if next_frontier = [] then
          err "%s is scalar-valued and cannot be composed" fn
        else go next_frontier rest
  in
  go [ type_name, [ key ] ] fns

(* Daplex set expressions: COUNT/SUM/AVG/MIN/MAX applied outermost over a
   path aggregate the inner values. A schema function of the same name
   always wins. *)
let aggregate_of_name name =
  match String.uppercase_ascii name with
  | "COUNT" -> Some Abdl.Ast.Count
  | "SUM" -> Some Abdl.Ast.Sum
  | "AVG" | "AVERAGE" -> Some Abdl.Ast.Avg
  | "MIN" -> Some Abdl.Ast.Min
  | "MAX" -> Some Abdl.Ast.Max
  | _ -> None

let eval_expr t inst fns =
  match List.rev fns with
  | outer :: inner_rev
    when declaring_type t (fst inst) outer = None
         && aggregate_of_name outer <> None ->
    let agg =
      match aggregate_of_name outer with
      | Some a -> a
      | None -> assert false
    in
    let* values = eval_path t inst (List.rev inner_rev) in
    let state =
      List.fold_left Abdl.Aggregate.add Abdl.Aggregate.empty values
    in
    Ok [ Abdl.Aggregate.finalize agg state ]
  | _ -> eval_path t inst fns

let matches t entity key (comps : Ast.comparison list) =
  List.fold_left
    (fun acc (c : Ast.comparison) ->
      let* acc = acc in
      if not acc then Ok false
      else
        let* values = eval_expr t (entity, key) c.comp_path.Ast.fns in
        Ok
          (List.exists
             (fun v -> Abdm.Predicate.eval c.comp_op v c.comp_value)
             values))
    (Ok true) comps

(* The leading comparisons the RETRIEVE can carry: those on a
   single-valued scalar function declared on [entity] itself, whose
   stored value is the function's value. [<>] and NULL stay per entity:
   the kernel matches a Null value with [<> v] and [= NULL], and the
   per-entity test, which sees no value at all, never does. *)
let rec pushable t entity = function
  | ({ comp_path = { fns = [ fn ]; _ }; comp_op; comp_value } : Ast.comparison)
    :: rest
    when comp_op <> Abdm.Predicate.Neq
         && (not (Abdm.Value.is_null comp_value))
         && Option.map (Daplex.Schema.classify (schema t))
              (Daplex.Schema.find_function (schema t) entity fn)
            = Some Daplex.Schema.C_scalar ->
    let pushed, rest = pushable t entity rest in
    Abdm.Predicate.make fn comp_op comp_value :: pushed, rest
  | comps -> [], comps

(* FOR EACH, DESTROY and THE ... SUCH THAT: fold [f] over the instances of
   [entity] that satisfy [such_that], in instance (first record) order.
   The pushable comparisons ride in the one RETRIEVE; the rest are tested
   per instance, just before [f] sees it. [printed] are the statement's
   other paths over [var]. *)
let select t ~var ~entity ~printed such_that init f =
  let* () =
    if Daplex.Schema.is_entity_name (schema t) entity then Ok ()
    else err "unknown entity type %s" entity
  in
  let* () =
    match
      List.find_opt
        (fun (p : Ast.path) -> not (String.equal p.var var))
        (List.map (fun (c : Ast.comparison) -> c.comp_path) such_that @ printed)
    with
    | Some p -> err "unbound variable %s (loop variable is %s)" p.var var
    | None -> Ok ()
  in
  let pushed, rest = pushable t entity such_that in
  let seen = Hashtbl.create 32 in
  Mapping.Kernel.select t.kernel
    (Abdm.Query.conj (Abdm.Predicate.file_eq entity :: pushed))
  |> List.fold_left
       (fun acc (dbkey, r) ->
         let* acc = acc in
         let key = Mapping.Ab_schema.entity_key entity r ~dbkey in
         if Hashtbl.mem seen key then Ok acc
         else begin
           Hashtbl.add seen key ();
           let* keep = matches t entity key rest in
           if keep then f acc key else Ok acc
         end)
       (Ok init)

(* THE v IN entity SUCH THAT ... — must select exactly one entity *)
let resolve_selector t (sel : Ast.selector) =
  let* hits =
    select t ~var:sel.sel_var ~entity:sel.sel_entity ~printed:[]
      sel.sel_such_that []
      (fun hits key -> Ok (key :: hits))
  in
  match hits with
  | [ key ] -> Ok key
  | [] -> err "THE %s IN %s: no such entity" sel.sel_var sel.sel_entity
  | _ :: _ :: _ ->
    err "THE %s IN %s: selects %d entities, expected one" sel.sel_var
      sel.sel_entity (List.length hits)

(* LET fn(x) = v — assign a scalar function at its declaring instance *)
let exec_let t (entity, key) fn value =
  match declaring_type t entity fn with
  | None -> err "%s is not a function of %s" fn entity
  | Some declared ->
    let decl =
      match Daplex.Schema.find_function (schema t) declared fn with
      | Some d -> d
      | None -> assert false
    in
    match Daplex.Schema.classify (schema t) decl with
    | Daplex.Schema.C_scalar | Daplex.Schema.C_scalar_multi ->
      let keys = ascend t (entity, key) declared in
      List.iter
        (fun ik ->
          ignore
            (Mapping.Kernel.run t.kernel
               (Abdl.Ast.Update
                  ( Abdm.Query.conj
                      [ Abdm.Predicate.file_eq declared; int_pred declared ik ],
                    [ Abdm.Modifier.Set_const (fn, value) ] ))))
        keys;
      Ok ()
    | Daplex.Schema.C_single_valued _ | Daplex.Schema.C_multi_valued _ ->
      err "LET %s: entity-valued functions use INCLUDE/EXCLUDE" fn

(* INCLUDE / EXCLUDE — add or remove a member of an entity-valued
   function, per the representation the transformation chose. *)
let exec_include_exclude t ~add (entity, key) fn (target : Ast.selector) =
  match declaring_type t entity fn with
  | None -> err "%s is not a function of %s" fn entity
  | Some declared ->
    let decl =
      match Daplex.Schema.find_function (schema t) declared fn with
      | Some d -> d
      | None -> assert false
    in
    let* range =
      match Daplex.Schema.classify (schema t) decl with
      | Daplex.Schema.C_single_valued r | Daplex.Schema.C_multi_valued r -> Ok r
      | Daplex.Schema.C_scalar | Daplex.Schema.C_scalar_multi ->
        err "%s is scalar-valued; use LET" fn
    in
    let* () =
      if String.equal range target.sel_entity then Ok ()
      else
        err "%s ranges over %s, not %s" fn range target.sel_entity
    in
    let* target_key = resolve_selector t target in
    let* s =
      match
        Transformer.Transform.set_of_function t.transform ~type_name:declared ~fn
      with
      | Some s -> Ok s
      | None -> err "no set transformed from function %s" fn
    in
    let* instance_keys =
      match ascend t (entity, key) declared with
      | [] -> err "no %s instance reachable from %s %d" declared entity key
      | keys -> Ok keys
    in
    let per_instance ik =
      match Transformer.Transform.origin_of_set t.transform s.set_name with
      | Some (Transformer.Transform.O_function_member _) ->
        (* the instance's own records hold the (single-valued) reference *)
        let query =
          Abdm.Query.conj
            [ Abdm.Predicate.file_eq declared; int_pred declared ik ]
        in
        let v = if add then Abdm.Value.Int target_key else Abdm.Value.Null in
        ignore
          (Mapping.Kernel.run t.kernel
             (Abdl.Ast.Update (query, [ Abdm.Modifier.Set_const (s.set_name, v) ])));
        Ok ()
      | Some (Transformer.Transform.O_function_owner _) ->
        let copies = records_of t declared ik in
        if add then begin
          let null_copy (_, c) =
            match Abdm.Record.value_of c s.set_name with
            | Some Abdm.Value.Null | None -> true
            | Some _ -> false
          in
          if List.exists null_copy copies then begin
            let query =
              Abdm.Query.conj
                [
                  Abdm.Predicate.file_eq declared;
                  int_pred declared ik;
                  Abdm.Predicate.make s.set_name Abdm.Predicate.Eq Abdm.Value.Null;
                ]
            in
            ignore
              (Mapping.Kernel.run t.kernel
                 (Abdl.Ast.Update
                    ( query,
                      [ Abdm.Modifier.Set_const
                          (s.set_name, Abdm.Value.Int target_key) ] )));
            Ok ()
          end
          else begin
            match copies with
            | (_, base) :: _ ->
              let dup =
                Abdm.Record.set base s.set_name (Abdm.Value.Int target_key)
              in
              ignore (Mapping.Kernel.run t.kernel (Abdl.Ast.Insert dup));
              Ok ()
            | [] -> err "no records for %s %d" declared ik
          end
        end
        else begin
          let member_count =
            List.length
              (List.filter
                 (fun (_, c) ->
                   match Abdm.Record.value_of c s.set_name with
                   | Some (Abdm.Value.Int _) -> true
                   | Some _ | None -> false)
                 copies)
          in
          let query =
            Abdm.Query.conj
              [
                Abdm.Predicate.file_eq declared;
                int_pred declared ik;
                int_pred s.set_name target_key;
              ]
          in
          if member_count > 1 then
            ignore (Mapping.Kernel.run t.kernel (Abdl.Ast.Delete query))
          else
            ignore
              (Mapping.Kernel.run t.kernel
                 (Abdl.Ast.Update
                    (query, [ Abdm.Modifier.Set_const (s.set_name, Abdm.Value.Null) ])));
          Ok ()
        end
      | Some (Transformer.Transform.O_link _) ->
        let link =
          List.find_opt
            (fun (l : Transformer.Transform.link) ->
              String.equal l.link_record s.set_member)
            t.transform.Transformer.Transform.links
        in
        begin
          match link with
          | None -> err "set %s has no LINK record" s.set_name
          | Some l ->
            let other_set =
              if String.equal l.link_set_a s.set_name then l.link_set_b
              else l.link_set_a
            in
            let pair_query =
              Abdm.Query.conj
                [
                  Abdm.Predicate.file_eq l.link_record;
                  int_pred s.set_name ik;
                  int_pred other_set target_key;
                ]
            in
            if add then begin
              if Mapping.Kernel.select t.kernel pair_query = [] then
                ignore
                  (Mapping.Kernel.run t.kernel
                     (Abdl.Ast.Insert
                        (Abdm.Record.make
                           [
                             Abdm.Keyword.file l.link_record;
                             Abdm.Keyword.make s.set_name (Abdm.Value.Int ik);
                             Abdm.Keyword.make other_set
                               (Abdm.Value.Int target_key);
                           ])));
              Ok ()
            end
            else begin
              ignore (Mapping.Kernel.run t.kernel (Abdl.Ast.Delete pair_query));
              Ok ()
            end
        end
      | Some Transformer.Transform.O_system
      | Some Transformer.Transform.O_isa
      | None -> err "set %s is not a function set" s.set_name
    in
    List.fold_left
      (fun acc ik ->
        let* () = acc in
        per_instance ik)
      (Ok ()) instance_keys

let exec_for_each t var entity such_that body =
  let printed =
    List.concat_map
      (function
        | Ast.A_print paths -> paths
        | Ast.A_let _ | Ast.A_include _ | Ast.A_exclude _ -> [])
      body
  in
  let* rows =
    select t ~var ~entity ~printed such_that []
      (fun acc key ->
        (* run the body actions in order; PRINT cells accumulate into
           this instance's row *)
        let* row =
          List.fold_left
            (fun acc action ->
              let* cells = acc in
              match action with
              | Ast.A_print paths ->
                List.fold_left
                  (fun acc (p : Ast.path) ->
                    let* cells = acc in
                    let* values = eval_expr t (entity, key) p.Ast.fns in
                    let cell =
                      match values with
                      | [] -> Abdm.Value.Null
                      | [ v ] -> v
                      | many ->
                        Abdm.Value.Str
                          (String.concat ", "
                             (List.map Abdm.Value.to_display many))
                    in
                    Ok ((Ast.path_to_string p, cell) :: cells))
                  (Ok cells) paths
              | Ast.A_let { fn; value } ->
                let* () = exec_let t (entity, key) fn value in
                Ok cells
              | Ast.A_include { fn; target } ->
                let* () = exec_include_exclude t ~add:true (entity, key) fn target in
                Ok cells
              | Ast.A_exclude { fn; target } ->
                let* () =
                  exec_include_exclude t ~add:false (entity, key) fn target
                in
                Ok cells)
            (Ok []) body
        in
        Ok (if row = [] then acc else List.rev row :: acc))
  in
  Ok (Printed (List.rev rows))

let exec_create t entity under assignments =
  let* tref =
    match Daplex.Schema.find_type (schema t) entity with
    | Some tref -> Ok tref
    | None -> err "unknown entity type %s" entity
  in
  let supertypes =
    match tref with
    | Daplex.Schema.Entity _ -> []
    | Daplex.Schema.Subtype s -> s.sub_supertypes
  in
  let* isa_values =
    List.fold_left
      (fun acc super ->
        let* acc = acc in
        match List.assoc_opt super under with
        | Some key ->
          begin
            match isa_set_between t ~super ~sub:entity with
            | Some s -> Ok ((s.Network.Types.set_name, key) :: acc)
            | None -> err "no ISA set %s -> %s" super entity
          end
        | None ->
          err "CREATE %s: missing UNDER %s <key> (subtype creation)" entity
            super)
      (Ok []) supertypes
  in
  (* validate assignments against the declared scalar functions *)
  let* () =
    List.fold_left
      (fun acc (fn, _) ->
        let* () = acc in
        match Daplex.Schema.find_function (schema t) entity fn with
        | Some decl ->
          begin
            match Daplex.Schema.classify (schema t) decl with
            | Daplex.Schema.C_scalar | Daplex.Schema.C_scalar_multi -> Ok ()
            | Daplex.Schema.C_single_valued _ | Daplex.Schema.C_multi_valued _ ->
              err "CREATE %s: %s is entity-valued; use the DML CONNECT path"
                entity fn
          end
        | None -> err "CREATE %s: %s is not a function of %s" entity fn entity)
      (Ok ()) assignments
  in
  let* shape =
    match Abdm.Descriptor.shape t.descriptor entity with
    | Some shape -> Ok shape
    | None -> err "no kernel file for %s" entity
  in
  let value attr =
    if String.equal attr Abdm.Keyword.file_attribute then Abdm.Value.Str entity
    else
      match List.assoc_opt attr assignments with
      | Some v -> v
      | None ->
        match List.assoc_opt attr isa_values with
        | Some key -> Abdm.Value.Int key
        | None -> Abdm.Value.Null
  in
  let record = Abdm.Record.init shape value in
  match Mapping.Kernel.run t.kernel (Abdl.Ast.Insert record) with
  | Abdl.Exec.Inserted dbkey ->
    let keyed = Abdm.Record.set record entity (Abdm.Value.Int dbkey) in
    Mapping.Kernel.replace t.kernel dbkey keyed;
    Ok (Created dbkey)
  | Abdl.Exec.Rows _ | Abdl.Exec.Deleted _ | Abdl.Exec.Updated _ ->
    err "CREATE %s: kernel refused the INSERT" entity

(* DESTROY: abort when the entity is referenced by a database function;
   otherwise delete the entity and its subtype hierarchy downward. *)
let referenced t type_name key =
  let sets = t.transform.Transformer.Transform.net.Network.Schema.sets in
  List.exists
    (fun (s : Network.Types.set_type) ->
      match Transformer.Transform.origin_of_set t.transform s.set_name with
      | Some (Transformer.Transform.O_function_member _)
      | Some (Transformer.Transform.O_link _)
        when String.equal s.set_owner type_name ->
        (* member records reference us through the set attribute *)
        Mapping.Kernel.select t.kernel
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq s.set_member; int_pred s.set_name key ])
        <> []
      | Some (Transformer.Transform.O_function_owner _)
        when String.equal s.set_member type_name ->
        (* owner copies reference us *)
        Mapping.Kernel.select t.kernel
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq s.set_owner; int_pred s.set_name key ])
        <> []
      | _ -> false)
    sets

let rec destroy_instance t type_name key =
  (* delete subtype records first (the hierarchy of §VI.H) *)
  let children =
    List.concat_map
      (fun (sub : Daplex.Types.subtype) ->
        match isa_set_between t ~super:type_name ~sub:sub.sub_name with
        | None -> []
        | Some s ->
          Mapping.Kernel.select t.kernel
            (Abdm.Query.conj
               [ Abdm.Predicate.file_eq sub.sub_name; int_pred s.set_name key ])
          |> List.map (fun (dbkey, r) ->
                 sub.sub_name, Mapping.Ab_schema.entity_key sub.sub_name r ~dbkey)
          |> List.sort_uniq compare)
      (Daplex.Schema.subtypes_of (schema t) type_name)
  in
  List.iter (fun (sub, k) -> destroy_instance t sub k) children;
  ignore
    (Mapping.Kernel.run t.kernel
       (Abdl.Ast.Delete
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq type_name; int_pred type_name key ])))

let exec_destroy t var entity such_that =
  (* victims in reverse instance order: the first referenced one aborts *)
  let* victims =
    select t ~var ~entity ~printed:[] such_that []
      (fun victims key -> Ok (key :: victims))
  in
  let* () =
    List.fold_left
      (fun acc key ->
        let* () = acc in
        if referenced t entity key then
          err "DESTROY %s: entity %d is referenced by a database function"
            entity key
        else Ok ())
      (Ok ()) victims
  in
  List.iter (fun key -> destroy_instance t entity key) victims;
  Ok (Destroyed (List.length victims))

let execute t = function
  | Ast.For_each { var; entity; such_that; body } ->
    exec_for_each t var entity such_that body
  | Ast.Create { entity; under; assignments } ->
    exec_create t entity under assignments
  | Ast.Destroy { var; entity; such_that } -> exec_destroy t var entity such_that

let run_program t stmts = List.map (fun stmt -> stmt, execute t stmt) stmts

let outcome_to_string = function
  | Printed rows ->
    if rows = [] then "(no entities)"
    else
      rows
      |> List.map (fun row ->
             row
             |> List.map (fun (label, v) ->
                    Printf.sprintf "%s = %s" label (Abdm.Value.to_display v))
             |> String.concat ", ")
      |> String.concat "\n"
  | Created key -> Printf.sprintf "created (key %d)" key
  | Destroyed n -> Printf.sprintf "destroyed %d entit%s" n (if n = 1 then "y" else "ies")

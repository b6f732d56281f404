(* The Daplex selection that [Daplex_dml.Engine]'s SUCH THAT translation
   replaced: the oracle its equivalence property compares against.
   FOR EACH, DESTROY and THE list every instance of the entity type
   ([instances]) and test each comparison one entity at a time
   ([matches]). The rest is the engine as it stood then, so a statement
   runs here exactly as it used to. *)

open Daplex_dml

type t = {
  kernel : Mapping.Kernel.t;
  transform : Transformer.Transform.t;
}

type outcome = Engine.outcome =
  | Printed of (string * Abdm.Value.t) list list
  | Created of int
  | Destroyed of int

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun msg -> Error msg) fmt

let create kernel transform = { kernel; transform }

let schema t = t.transform.Transformer.Transform.source

let retrieve t query = Retrieve_oracle.retrieve t.kernel query

let int_pred attr key =
  Abdm.Predicate.make attr Abdm.Predicate.Eq (Abdm.Value.Int key)

(* All stored copies of one entity instance. *)
let records_of t type_name key =
  retrieve t
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
                    retrieve t
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

(* Distinct instances (primary keys) of an entity type's file. *)
let instances t entity =
  let records = retrieve t (Abdm.Query.conj [ Abdm.Predicate.file_eq entity ]) in
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun (dbkey, r) ->
      let k = Mapping.Ab_schema.entity_key entity r ~dbkey in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some k
      end)
    records

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

let check_var expected (p : Ast.path) =
  if String.equal p.var expected then Ok ()
  else err "unbound variable %s (loop variable is %s)" p.var expected

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

(* THE v IN entity SUCH THAT ... — must select exactly one entity *)
let resolve_selector t (sel : Ast.selector) =
  let* () =
    if Daplex.Schema.is_entity_name (schema t) sel.sel_entity then Ok ()
    else err "unknown entity type %s" sel.sel_entity
  in
  let* () =
    List.fold_left
      (fun acc (c : Ast.comparison) ->
        let* () = acc in
        check_var sel.sel_var c.comp_path)
      (Ok ()) sel.sel_such_that
  in
  let* hits =
    List.fold_left
      (fun acc key ->
        let* acc = acc in
        let* keep = matches t sel.sel_entity key sel.sel_such_that in
        Ok (if keep then key :: acc else acc))
      (Ok [])
      (instances t sel.sel_entity)
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
              if retrieve t pair_query = [] then
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
  let* () =
    if Daplex.Schema.is_entity_name (schema t) entity then Ok ()
    else err "unknown entity type %s" entity
  in
  let* () =
    List.fold_left
      (fun acc (c : Ast.comparison) ->
        let* () = acc in
        check_var var c.comp_path)
      (Ok ()) such_that
  in
  let* () =
    List.fold_left
      (fun acc action ->
        let* () = acc in
        match action with
        | Ast.A_print paths ->
          List.fold_left
            (fun acc p ->
              let* () = acc in
              check_var var p)
            (Ok ()) paths
        | Ast.A_let _ | Ast.A_include _ | Ast.A_exclude _ -> Ok ())
      (Ok ()) body
  in
  let keys = instances t entity in
  let* rows =
    List.fold_left
      (fun acc key ->
        let* acc = acc in
        let* keep = matches t entity key such_that in
        if not keep then Ok acc
        else
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
      (Ok []) keys
  in
  Ok (Printed (List.rev rows))

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
        retrieve t
          (Abdm.Query.conj
             [ Abdm.Predicate.file_eq s.set_member; int_pred s.set_name key ])
        <> []
      | Some (Transformer.Transform.O_function_owner _)
        when String.equal s.set_member type_name ->
        (* owner copies reference us *)
        retrieve t
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
          retrieve t
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
  let* () =
    if Daplex.Schema.is_entity_name (schema t) entity then Ok ()
    else err "unknown entity type %s" entity
  in
  let* () =
    List.fold_left
      (fun acc (c : Ast.comparison) ->
        let* () = acc in
        check_var var c.comp_path)
      (Ok ()) such_that
  in
  let keys = instances t entity in
  let* victims =
    List.fold_left
      (fun acc key ->
        let* acc = acc in
        let* keep = matches t entity key such_that in
        Ok (if keep then key :: acc else acc))
      (Ok []) keys
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
  | Ast.Create _ as stmt ->
    (* CREATE selects no entities: the current engine runs it *)
    Engine.execute (Engine.create t.kernel t.transform) stmt
  | Ast.Destroy { var; entity; such_that } -> exec_destroy t var entity such_that

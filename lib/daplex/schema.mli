(** A functional database schema ([fun_dbid_node]): named non-entity
    types, entity types, entity subtypes, uniqueness constraints, and
    overlap constraints — plus the function-classification logic that the
    Chapter V transformation algorithms switch on. *)

type t = {
  name : string;
  non_entities : Types.non_entity list;
  entities : Types.entity list;
  subtypes : Types.subtype list;
  uniqueness : Types.uniqueness list;
  overlaps : Types.overlap list;
}

(** An entity type or entity subtype. *)
type type_ref =
  | Entity of Types.entity
  | Subtype of Types.subtype

(** Result of resolving a function's range against the schema. *)
type resolved_range =
  | Rs_scalar of {
      kind : Types.scalar_kind;
      length : int;
      values : string list;  (** enumeration members *)
    }
  | Rs_entity of string  (** an entity type or subtype name *)

(** The paper's four function classes (§V.A). *)
type fn_class =
  | C_scalar
  | C_scalar_multi
  | C_single_valued of string  (** range entity *)
  | C_multi_valued of string  (** range entity *)

val make :
  name:string ->
  ?non_entities:Types.non_entity list ->
  ?entities:Types.entity list ->
  ?subtypes:Types.subtype list ->
  ?uniqueness:Types.uniqueness list ->
  ?overlaps:Types.overlap list ->
  unit -> t

(** [find_type t name] finds an entity type or subtype by name. *)
val find_type : t -> string -> type_ref option

(** Test seam: the tests read a parsed non-entity type through it. *)
val find_non_entity : t -> string -> Types.non_entity option

(** [is_entity_name t name] — entity type or subtype? *)
val is_entity_name : t -> string -> bool

val type_name : type_ref -> string

val functions_of : type_ref -> Types.function_decl list

(** [find_function t type_name fn_name] searches the type's own function
    list (not inherited ones — inherited values live in the supertype's
    record after transformation). *)
val find_function : t -> string -> string -> Types.function_decl option

(** [owner_of_function t fn_name] — the (first) entity type or subtype
    declaring a function of that name, as KMS's "traverse the functional
    schema to check the required function" (§VI.B.4). Test seam: the
    tests check a parsed schema's function owners through it. *)
val owner_of_function : t -> string -> (type_ref * Types.function_decl) option

(** [resolve_range t range] classifies what the range denotes. Raises
    [Invalid_argument] if a named range is undeclared. *)
val resolve_range : t -> Types.range -> resolved_range

(** [classify t fn] applies the §V.A switch. *)
val classify : t -> Types.function_decl -> fn_class

(** Immediate supertype names of a subtype. *)
val supertypes_of : t -> string -> string list

(** Transitive supertypes, nearest first, without duplicates. *)
val ancestors : t -> string -> string list

(** Immediate subtypes of an entity type or subtype. *)
val subtypes_of : t -> string -> Types.subtype list

(** A type is terminal when it is not a supertype of any subtype
    ([en_terminal] / [gsn_terminal]). *)
val is_terminal : t -> string -> bool

(** All entity-type and subtype names, entities first, declaration
    order. Test seam: the transformer tests list a schema's types. *)
val all_type_names : t -> string list

(** [unique_functions t type_name] — function names of [type_name] under a
    uniqueness constraint. Test seam: the tests read a parsed UNIQUE
    clause through it. *)
val unique_functions : t -> string -> string list

(** [overlap_allowed t a b] — may one entity belong to both terminal
    subtypes [a] and [b]? True when some OVERLAP constraint pairs them
    (in either order); subtypes are otherwise disjoint (§V.E). Test
    seam: the tests read a parsed OVERLAP clause through it. *)
val overlap_allowed : t -> string -> string -> bool

(** [validate t] checks name uniqueness, supertype existence, range
    resolution, and constraint references. *)
val validate : t -> (unit, string) result

(** Renders the schema in the Daplex DDL syntax {!Ddl_parser} accepts
    (round-trips). *)
val to_ddl : t -> string

(** The functional data model (Shipman's Daplex): entity types carrying
    functions, entity subtypes in ISA hierarchies with value inheritance,
    and non-entity types (paper §II.A, data structures of §IV.A.2).

    A function maps an entity into scalar values, entities, or sets
    thereof. The four classifications that drive the Chapter V
    transformation are: scalar, scalar multi-valued, single-valued (range
    is an entity), and multi-valued (range is a set of entities). *)

(** Scalar kinds of non-entity types ([ennt_type] of Fig. 4.10). *)
type scalar_kind =
  | K_int
  | K_float
  | K_string
  | K_bool
  | K_enum

(** Whether a named non-entity type is a base type, a subtype of a base
    type, or a derived type ([ent_non_node] / [sub_non_node] /
    [der_non_node]). *)
type non_entity_class =
  | NE_base
  | NE_subtype
  | NE_derived

(** A named non-entity type declaration. *)
type non_entity = {
  ne_name : string;
  ne_class : non_entity_class;
  ne_kind : scalar_kind;
  ne_length : int;  (** maximum value length; 0 when unconstrained *)
  ne_values : string list;  (** enumeration members, empty otherwise *)
  ne_range : (int * int) option;  (** integer RANGE lo..hi constraint *)
  ne_constant : bool;
}

(** What a function returns — before schema resolution a name may denote a
    non-entity type or an entity type; {!Schema} resolves it. *)
type range =
  | R_int
  | R_float
  | R_bool
  | R_string of int  (** STRING(len); 0 when unconstrained *)
  | R_named of string  (** a declared non-entity type or entity (sub)type *)

(** A function declared on an entity type or subtype ([function_node]). *)
type function_decl = {
  fn_name : string;
  fn_range : range;
  fn_set : bool;  (** set-valued: SET OF range *)
}

(** An entity type ([ent_node]). *)
type entity = {
  ent_name : string;
  ent_functions : function_decl list;
}

(** An entity subtype ([gen_sub_node]); may have several supertypes, each
    an entity type or another subtype. *)
type subtype = {
  sub_name : string;
  sub_supertypes : string list;
  sub_functions : function_decl list;
}

(** UNIQUE f1, ..., fn WITHIN t (§V.D). *)
type uniqueness = {
  uniq_functions : string list;
  uniq_within : string;
}

(** OVERLAP a, b WITH c, d (§V.E). *)
type overlap = {
  ov_left : string list;
  ov_right : string list;
}

val range_to_string : range -> string

val function_to_string : function_decl -> string

(** The schema transformer of the Direct Language Interface strategy
    (§III.B.2): maps a functional (Daplex) schema into a network schema,
    implementing the six transformations of Chapter V —

    - entity types → record types + SYSTEM-owned sets (AUTOMATIC/FIXED);
    - entity subtypes → record types + ISA sets named
      [supertype_subtype] (AUTOMATIC/FIXED);
    - non-entity types → network item types (string→CHARACTER,
      integer→FIXED, float→FLOAT, enumeration→CHARACTER sized to the
      longest member);
    - scalar functions → items; scalar multi-valued functions → items with
      DUPLICATES NOT ALLOWED;
    - single-valued functions → sets named after the function, owned by
      the {e range} record type, member the {e domain} record type
      (MANUAL/OPTIONAL);
    - multi-valued functions → one-to-many sets owned by the {e domain}
      record type, or — when the range type declares a multi-valued
      function back — a [LINK_X] record type plus two sets
      (MANUAL/OPTIONAL);
    - uniqueness constraints → DUPLICATES ARE NOT ALLOWED clauses;
    - overlap constraints → the {!Overlap_table}.

    All sets select BY APPLICATION. *)

(** Why a set exists — the annotation the Chapter VI DML translation
    switches on when the target is an AB(functional) database. *)
type set_origin =
  | O_system  (** SYSTEM-owned set of a top-level entity type *)
  | O_isa  (** ISA set between supertype and subtype *)
  | O_function_member of string
      (** Daplex function (named) declared on the {e member} record type —
          single-valued functions *)
  | O_function_owner of string
      (** Daplex function declared on the {e owner} record type —
          one-to-many multi-valued functions *)
  | O_link of string
      (** one side of a many-to-many pair; the [LINK_X] record is the
          member (payload names the Daplex function) *)

(** A many-to-many junction record. *)
type link = {
  link_record : string;  (** LINK_X *)
  link_side_a : string * string;  (** function name, its declaring type *)
  link_side_b : string * string;
  link_set_a : string;  (** set name of side A (collision-resolved) *)
  link_set_b : string;
}

type t = {
  net : Network.Schema.t;
  origins : (string * set_origin) list;  (** set name → origin *)
  links : link list;
  overlap : Overlap_table.t;
  source : Daplex.Schema.t;
}

(** [transform schema] runs the Chapter V algorithm. Raises
    [Invalid_argument] on an invalid source schema. *)
val transform : Daplex.Schema.t -> t

val origin_of_set : t -> string -> set_origin option

(** [set_of_function t ~type_name ~fn] — the set transformed from function
    [fn] declared on [type_name] (accounting for collision-renamed sets):
    the set whose origin names [fn] and whose member (single-valued) or
    owner (multi-valued / link) is [type_name]. *)
val set_of_function :
  t -> type_name:string -> fn:string -> Network.Types.set_type option

(** [isa_sets_of_member t record] — the ISA sets in which [record] is the
    member (one per declared supertype). *)
val isa_sets_of_member : t -> string -> Network.Types.set_type list

(** [system_set_of t record] — the SYSTEM-owned set of a top-level entity
    record type, if it is one. Test seam: the tests check which records
    the transformation hangs off SYSTEM. *)
val system_set_of : t -> string -> Network.Types.set_type option

val origin_to_string : set_origin -> string

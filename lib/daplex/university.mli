(** Shipman's University database — the paper's running example
    (Fig. 2.1), with a sample instance population. The schema exercises
    every construct the Chapter V transformation handles: entity types,
    an ISA hierarchy (person → employee → {support_staff, faculty},
    person → student), scalar functions, a scalar multi-valued function
    (dependents), single-valued functions (supervisor, dept, advisor), a
    one-to-many multi-valued function (offers), a many-to-many pair
    (teaching / taught_by → LINK_1), a uniqueness constraint, and an
    overlap constraint. *)

(** The Daplex DDL text of the schema (parses with {!Ddl_parser.schema}). *)
val ddl : string

(** The parsed and validated schema. *)
val schema : unit -> Schema.t

(** One function value in a sample row. *)
type fvalue =
  | Scalar of Abdm.Value.t
  | Scalars of Abdm.Value.t list  (** scalar multi-valued *)
  | Ref of string  (** entity reference by row key *)
  | Refs of string list  (** multi-valued entity references *)

(** A sample entity instance. [row_key] is unique per type; subtypes name
    their supertype instances through [row_isa] (supertype name → its row
    key). *)
type row = {
  row_type : string;
  row_key : string;
  row_isa : (string * string) list;
  row_values : (string * fvalue) list;
}

(** The sample population: 4 departments, 12 courses, and a person
    hierarchy with faculty, students, and support staff. *)
val rows : row list

(** [scaled_rows n] replicates the population pattern to roughly [n]
    entities per major type, for benchmark workloads. Keys are suffixed
    per replica; so are course titles after the first replica, and each
    replica offsets the ssn values, so (title, semester) and ssn stay
    unique. *)
val scaled_rows : int -> row list

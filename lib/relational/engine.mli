(** KMS/KC of the relational language interface: SQL statements become
    ABDL requests against the AB(relational) database. The most direct of
    the MLDS translations — one SQL statement maps to one ABDL request.
    The kernel enforces UNIQUE: an INSERT is one conditional
    {!Mapping.Kernel.insert_unique}, whose probes are not requests. An
    UPDATE that sets a UNIQUE column first retrieves the rows it targets
    and the rows holding each new value ({!Mapping.Kernel.select}), so its
    translation lists those RETRIEVEs before the UPDATE. *)

type t

(** [create kernel name] — a fresh SQL session; tables are created with
    [CREATE TABLE]. With [read_only:true] every statement but SELECT is
    rejected — the mode used when SQL is a window onto a database owned
    by another data model (the MMDS cross-model path). [schema] presets
    the relation catalogue (e.g. one derived from another model's
    schema). *)
val create :
  ?read_only:bool -> ?schema:Types.schema -> Mapping.Kernel.t -> string -> t

val schema : t -> Types.schema

type outcome =
  | Table of {
      header : string list;
      rows : Abdm.Value.t list list;
    }
  | Created_table of string
  | Inserted of int
  | Deleted of int
  | Updated of int

val execute : t -> Sql_ast.stmt -> (outcome, string) result

(** [run t src] parses and executes one statement. *)
val run : t -> string -> (outcome, string) result

val run_program : t -> string -> (Sql_ast.stmt * (outcome, string) result) list

val outcome_to_string : outcome -> string

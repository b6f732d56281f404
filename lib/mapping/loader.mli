(** Loads a functional-database instance into the kernel as an
    AB(functional) database (the Goisman mapping of §III.C.1 over the
    transformed network schema of Chapter V).

    Each entity's unique key is its primary record's database key. The
    keys are fixed before any record is stored, so every primary record is
    written once, complete: scalar values, its own key, ISA references,
    single-valued functions (member-held), and the first combination of
    its multi-valued functions — one-to-many functions (owner-held) and
    scalar multi-valued values. Each further combination is a duplicated
    copy of the record (§VI.D.2); the copies, and then the LINK records
    of many-to-many pairs, follow all primary records. *)

(** Maps (type name, row key) to the entity's unique key. *)
type key_map

(** [load kernel transform rows] populates an empty kernel; validates
    every record against the AB(functional) descriptor before storing it.
    The i-th row's primary record gets the key the i-th insert into the
    kernel would get. Raises [Invalid_argument] if the kernel holds a
    record, on rows referencing unknown types, functions, or row keys,
    and on validation failure. *)
val load :
  Kernel.t -> Transformer.Transform.t -> Daplex.University.row list -> key_map

val find_key : key_map -> type_name:string -> row_key:string -> int option

(** [university ?backends ?scale ()] — convenience: transform the
    University schema and load its sample rows (scaled when [scale] is
    given) into a fresh kernel ([backends = 0] or absent → single store;
    [n >= 1] → MBDS with [n] backends). Returns kernel, transform and key
    map. *)
val university :
  ?backends:int -> ?scale:int -> unit ->
  Kernel.t * Transformer.Transform.t * key_map

(** The Overlap Table of §V.E / §VI.G: which terminal entity subtypes an
    entity may belong to simultaneously. Subtypes sharing an ancestor are
    disjoint unless an OVERLAP constraint pairs them; subtypes related by
    ISA, or from unrelated hierarchies, never conflict. The STORE
    translation consults this table before insertion. *)

type t

val of_schema : Daplex.Schema.t -> t

(** [allowed t a b] — may one entity belong to both subtypes [a] and
    [b]? *)
val allowed : t -> string -> string -> bool

val to_string : t -> string

(** Keyword predicates: [(attribute, relational operator, value)] triples
    used to qualify ABDL requests (paper §II.C.1). *)

type op =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type t = {
  attribute : string;
  op : op;
  value : Value.t;
}

val make : string -> op -> Value.t -> t

(** [file_eq name] is the predicate [(FILE = name)]. *)
val file_eq : string -> t

(** [satisfied_by pred record] holds when the record has a keyword for the
    predicate's attribute and the relation holds between the keyword's
    value and the predicate's value. A record lacking the attribute never
    satisfies the predicate, and [Null] only satisfies [Eq Null] /
    [Neq v]. *)
val satisfied_by : t -> Record.t -> bool

(** [eval op a b] applies the relational operator to two values. *)
val eval : op -> Value.t -> Value.t -> bool

val op_to_string : op -> string

val op_of_string : string -> op option

(** Renders as [(attribute op value)], e.g. [(title = 'DB')]. *)
val to_string : t -> string

(** [to_buffer buf p] appends [to_string p] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

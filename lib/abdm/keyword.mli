(** Attribute-value pairs — the keywords of the attribute-based data model.

    A keyword is formed from the cartesian product of attribute names and
    the domains of their values (paper §II.C.1). The distinguished
    attribute [FILE] names the file a record belongs to. *)

type t = {
  attribute : string;
  value : Value.t;
}

(** The reserved attribute naming a record's file. *)
val file_attribute : string

val make : string -> Value.t -> t

(** [file name] is the keyword [<FILE, name>]. *)
val file : string -> t

(** Renders in the paper's surface syntax [<attribute, value>]. *)
val to_string : t -> string

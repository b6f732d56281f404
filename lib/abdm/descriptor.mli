(** The attribute-based database descriptor: for each file, the ordered
    attribute template its records follow. The kernel mapping subsystem
    produces one of these when it transforms a UDM database definition into
    a KDM definition (paper §I.B.1); the kernel formatting subsystem reads
    it back when shaping results. *)

type vtype =
  | T_int
  | T_float
  | T_string

type attribute = {
  attr_name : string;
  attr_type : vtype;
  attr_length : int;  (** maximum value length; 0 when unconstrained *)
  attr_unique : bool;  (** DUPLICATES NOT ALLOWED carried into the kernel *)
}

type file = {
  file_name : string;
  attributes : attribute list;
}

type t

val make : string -> t

val db_name : t -> string

(** [add_file t file] registers a file template. Raises [Invalid_argument]
    on a duplicate file name. *)
val add_file : t -> file -> t

val find_file : t -> string -> file option

(** [shape t name] is the record shape of file [name]'s template: [FILE]
    first, then the template's attributes in order. [None] for an unknown
    file or a template that repeats an attribute. One shape value per
    file, so every record built over it shares it. *)
val shape : t -> string -> Record.shape option

val file_names : t -> string list

val files : t -> file list

(** [attribute_names t file] is the template's attribute order, or [[]] for
    an unknown file. *)
val attribute_names : t -> string -> string list

(** [validate t record] checks a record against its file's template:
    known file, no unknown attributes, values of the declared types
    ([Null] always allowed). Returns an error message on failure. *)
val validate : t -> Record.t -> (unit, string) result

val vtype_to_string : vtype -> string

val pp : Format.formatter -> t -> unit

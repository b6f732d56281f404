(** ABDM records: at most one keyword per attribute plus an optional
    textual portion (paper Fig. 2.3).

    A record is held as its {!shape} — the attribute names in keyword
    order — and a flat array of values beside it. Records built over the
    same shape value share it; the store keeps one shape per file, so a
    record costs one word per keyword plus its values. *)

type t

(** The attribute names of a record, in keyword order, each at most
    once. *)
type shape

(** [shape attrs] is the shape with attributes [attrs] in that order.
    Raises [Invalid_argument] if an attribute repeats. Producers that
    know their file's template build its shape once and pass it to
    {!of_values} or {!init} for every record. *)
val shape : string list -> shape

(** [make ?text keywords] builds a record over a fresh shape. Raises
    [Invalid_argument] if two keywords share an attribute (a record holds
    at most one keyword per attribute). *)
val make : ?text:string -> Keyword.t list -> t

(** [of_values shape values]: the i-th value is the i-th attribute's.
    The record takes [values] over; the caller must not write it again.
    Raises [Invalid_argument] unless there is one value per attribute. *)
val of_values : shape -> Value.t array -> t

(** [init shape f]: each attribute [a] of [shape] gets [f a]. *)
val init : shape -> (string -> Value.t) -> t

val shape_of : t -> shape

(** [text record] is the record's textual portion, [""] when it has
    none. *)
val text : t -> string

(** [with_shape record shape] is [record] over [shape] when [shape] lists
    the same attributes in the same order as the record's own, else
    [None]: how the store swaps a record's fresh shape for the one its
    file already holds. *)
val with_shape : t -> shape -> t option

(** [value_of record attr] is the value of [attr]'s keyword, or [None] if
    the record has no keyword for [attr]. *)
val value_of : t -> string -> Value.t option

(** [file record] is the record's file name (value of the [FILE] keyword),
    or [None] if absent. *)
val file : t -> string option

(** [set record attr v] replaces the keyword for [attr], keeping the
    record's shape, or adds it last under a new shape. *)
val set : t -> string -> Value.t -> t

(** [remove record attr] drops the keyword for [attr] if present. *)
val remove : t -> string -> t

(** [attributes record] lists attribute names in keyword order. *)
val attributes : t -> string list

(** [fold f acc record] folds [f] over the keywords in order. *)
val fold : ('a -> string -> Value.t -> 'a) -> 'a -> t -> 'a

val equal : t -> t -> bool

(** [keywords_to_buffer buf record] appends the keywords in the paper's
    surface syntax, [<a, v>, <b, w>] (no parentheses, no text). *)
val keywords_to_buffer : Buffer.t -> t -> unit

val to_string : t -> string

val pp : Format.formatter -> t -> unit

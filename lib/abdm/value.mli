(** Atomic attribute values of the attribute-based data model (ABDM).

    A keyword is an [attribute, value] pair; this module defines the value
    half. Values are the scalar domains the paper's non-entity types reduce
    to: integers, floating-points, character strings, and the distinguished
    null used by the CONNECT/DISCONNECT translations to blank out a
    function-valued attribute. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Null

(** [compare a b] is a total order on values. Numeric values ([Int],
    [Float]) compare numerically with one another, an [Int] with a
    [Float] exactly (Int 2{^53}+1 is above Float 2{^53}, which equals
    Int 2{^53}; a float at or above 2{^62} is above every [Int]; NaN is
    below every number); strings compare lexicographically; [Null] is
    smaller than everything else; values of incomparable classes order
    [Null < numeric < string]. *)
val compare : t -> t -> int

val equal : t -> t -> bool

val is_null : t -> bool

(** [to_string v] renders the value in ABDL surface syntax: integers
    literally, strings in single quotes, null as [NULL]. A float prints
    with the fewest significant digits (15 to 17) that read back
    bit-equal, and always with a [.] or an exponent — [3.0], [1e-07],
    [1e+22] — so that parsing the text gives the same value back. *)
val to_string : t -> string

(** [to_buffer buf v] appends [to_string v] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** [add_int buf i] appends [string_of_int i] to [buf], without the
    string. *)
val add_int : Buffer.t -> int -> unit

(** [to_display v] renders the value without string quoting, for result
    formatting (KFS output). Floats print as [%g]. *)
val to_display : t -> string

(** [display_length v] is [String.length (to_display v)], without the
    string for an [Int], a [Str] or [Null]. *)
val display_length : t -> int

(** [add_display ?indent buf v] appends [to_display v] to [buf], with
    [indent] (default none) after each newline of a string. *)
val add_display : ?indent:string -> Buffer.t -> t -> unit

(** [add_text ?indent buf s] appends [s] to [buf] with [indent] after
    each of its newlines. *)
val add_text : ?indent:string -> Buffer.t -> string -> unit

val pp : Format.formatter -> t -> unit

(** [of_literal s] parses an ABDL literal: a quoted string, an integer, a
    float, or [NULL]. Raises [Invalid_argument] on malformed input.
    Test seam: the parsers read literals off the token cursor; the tests
    build values from text through it. *)
val of_literal : string -> t

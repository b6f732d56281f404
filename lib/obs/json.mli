(** Minimal JSON support for the telemetry plane.

    The repo is dependency-free, so both sides of the wire-level JSON
    used by [Stats]/[Tail] live here: render helpers shared with
    {!Export}, and a small recursive-descent parser used by [mlds_top]
    and by tests that validate exported JSONL. The parser accepts
    standard JSON; [\uXXXX] escapes are decoded to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Parse one complete JSON value; trailing non-whitespace is an error.
    The error string names the byte offset of the failure. *)
val parse : string -> (t, string) result

(* ---------- accessors ---------- *)

(** [member key j] is the value bound to [key] when [j] is an object. *)
val member : string -> t -> t option

val to_arr : t -> t list option

(** [num_member key j] = [member key j |> to_num], etc. *)
val num_member : string -> t -> float option

val int_member : string -> t -> int option
val str_member : string -> t -> string option

(* ---------- rendering ---------- *)

(** [quote s] is [s] escaped and wrapped in double quotes. *)
val quote : string -> string

(** Compact JSON number: integers render without a fraction, non-finite
    floats render as [0]. *)
val number : float -> string

(** Render any value back to compact JSON. *)
val render : t -> string

(** A network database schema ([net_dbid_node]): a named collection of
    record types and set types, with the structural invariants of §II.B —
    every set has exactly one owner (a record type or SYSTEM) and one
    member record type. *)

type t = {
  name : string;
  records : Types.record_type list;
  sets : Types.set_type list;
}

(** The distinguished owner of system-owned (singular) sets. *)
val system_owner : string

val make :
  name:string -> records:Types.record_type list -> sets:Types.set_type list ->
  t

(** [validate t] checks: unique record/set names, set owners and members
    name declared record types (owner may be SYSTEM), and no set has the
    same record as both owner and member under automatic insertion. *)
val validate : t -> (unit, string) result

val find_record : t -> string -> Types.record_type option

val find_set : t -> string -> Types.set_type option

(** Sets in which [record] participates as member. *)
val sets_with_member : t -> string -> Types.set_type list

(** Sets owned by [record]. *)
val sets_with_owner : t -> string -> Types.set_type list

(** Test seam: the tests list a parsed schema's record types. *)
val record_names : t -> string list

(** Test seam: the tests list a parsed schema's set types. *)
val set_names : t -> string list

(** [set_dup_flag t ~record ~items] clears [attr_dup_allowed] on the named
    items — the DUPLICATES ARE NOT ALLOWED mapping of §V.D. Unknown
    record/items are ignored. *)
val set_dup_flag : t -> record:string -> items:string list -> t

(** Renders the schema in the DDL surface syntax of Fig. 5.1 (also the
    syntax {!Ddl_parser} accepts, so [to_ddl] round-trips). *)
val to_ddl : t -> string

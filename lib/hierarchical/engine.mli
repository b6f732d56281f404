(** KMS/KC of the hierarchical language interface: DL/I calls against the
    AB(hierarchical) database. Position (currency) follows IMS rules: GU
    establishes position and parentage; GN advances through the hierarchic
    sequence; GNP stays within the current parent's subtree.

    Each call is translated, not walked: one RETRIEVE per segment type and
    parent, [(FILE = seg) AND (parent = key)], carrying the SSA's
    qualification, and issued only as far as the call reads. Hierarchic
    order is key order, so position and parentage are key paths, and GN
    and GNP continue from the current segment's key (even if another
    session has deleted it). A qualification on a field the segment does
    not have is an error, like an unknown field in ISRT or REPL. *)

type t

val create : Mapping.Kernel.t -> Types.schema -> t

val schema : t -> Types.schema

type outcome =
  | Found of {
      segment : string;
      key : int;
      fields : (string * Abdm.Value.t) list;
    }
  | Not_found  (** the IMS 'GE' status code *)
  | Inserted of int
  | Replaced of int
  | Deleted of int  (** segments removed, subtree included *)

val execute : t -> Dli_ast.call -> (outcome, string) result

val run : t -> string -> (outcome, string) result

val run_program : t -> string -> (Dli_ast.call * (outcome, string) result) list

(** Current position (segment type, key), if any. *)
val position : t -> (string * int) option

val outcome_to_string : outcome -> string

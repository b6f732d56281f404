(** ABDL request execution against a single ABDM store. A RETRIEVE is
    shaped per partition ({!share}) and the shares combined ({!rows}): a
    single store is one partition, and each MBDS backend shapes its own
    for the controller to merge. *)

type row = {
  dbkey : Abdm.Store.dbkey option;
      (** the database key for plain retrieves; [None] for aggregate rows *)
  values : (string * Abdm.Value.t) list;
}

type result =
  | Inserted of Abdm.Store.dbkey
  | Deleted of int
  | Updated of int
  | Rows of row list

(** [run store request] executes one request. Retrieval rows come back in
    ascending database-key order; a BY clause without aggregates sorts by
    that attribute instead (stable), and with aggregates groups by it. *)
val run : Abdm.Store.t -> Ast.request -> result

(** A RETRIEVE's rows over one partition, before the merge: for plain
    targets the matches in row order; with aggregates one partial
    {!Aggregate.state} per aggregate target and group, plus the group's
    lowest-key member. *)
type share

(** [share retrieve matches] shapes one partition's key-ordered
    [matches] (as {!Abdm.Store.select} returns them). *)
val share :
  Ast.retrieve -> (Abdm.Store.dbkey * Abdm.Record.t) list -> share

(** [rows retrieve shares] combines the non-empty list of [retrieve]'s
    shares of disjoint partitions into the reply's rows: plain runs by
    merge, groups by {!Aggregate.merge}. Raises [Invalid_argument] on no
    share. *)
val rows : Ast.retrieve -> share list -> row list

(** [join_rows rc ~left ~right] — the RETRIEVE_COMMON equi-join: pairs each
    left record with every right record whose join attribute carries the
    same (non-null) value, merges the keyword lists (right-hand attributes
    colliding with a left name are renamed [file.attr]), and projects
    [rc_targets]. Join rows carry no database key. *)
val join_rows :
  Ast.retrieve_common ->
  left:(Abdm.Store.dbkey * Abdm.Record.t) list ->
  right:(Abdm.Store.dbkey * Abdm.Record.t) list ->
  row list

(** [add_result ?indent buf result] appends the result's display text
    to [buf]: [INSERTED dbkey=k], [DELETED n], [UPDATED n], [NO
    RECORDS], or one row a line, [[key] attr=value, ...] (no key for
    aggregate and join rows). [indent] (default none) follows every
    newline written, a string value's included. *)
val add_result : ?indent:string -> Buffer.t -> result -> unit

(** [result_to_string result] is {!add_result}'s text. *)
val result_to_string : result -> string

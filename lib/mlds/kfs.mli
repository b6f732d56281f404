(** The kernel formatting subsystem (KFS): reshapes kernel results into the
    user data model's display format (paper §I.B.1). Each formatter pairs
    the user's statements with their outcomes, one block per statement,
    with constraint aborts reported inline.

    [add_* buf pairs] appends the reply to [buf] and returns nothing: the
    reply stays in the caller's buffer, which it may clear and reuse for
    every reply (the server's executor frames it from there). *)

val add_codasyl :
  Buffer.t ->
  (Codasyl_dml.Ast.stmt * (Codasyl_dml.Engine.outcome, string) result) list ->
  unit

val add_daplex :
  Buffer.t ->
  (Daplex_dml.Ast.stmt * (Daplex_dml.Engine.outcome, string) result) list ->
  unit

val add_sql :
  Buffer.t ->
  (Relational.Sql_ast.stmt * (Relational.Engine.outcome, string) result) list ->
  unit

val add_dli :
  Buffer.t ->
  (Hierarchical.Dli_ast.call * (Hierarchical.Engine.outcome, string) result) list ->
  unit

val add_abdl : Buffer.t -> (Abdl.Ast.request * Abdl.Exec.result) list -> unit

(** [format_abdl pairs] is {!add_abdl}'s reply in a fresh buffer: a
    kernel-path reply to compare with a submitted one. *)
val format_abdl : (Abdl.Ast.request * Abdl.Exec.result) list -> string

(** [table header rows] — align a result table in columns. *)
val table : string list -> Abdm.Value.t list list -> string

(** The kernel formatting subsystem (KFS): reshapes kernel results into the
    user data model's display format (paper §I.B.1). Each formatter pairs
    the user's statements with their outcomes, one block per statement,
    with constraint aborts reported inline. The reply is written into one
    buffer: [buf] when given (cleared first; the caller may reuse it for
    every reply), else a fresh one. *)

val format_codasyl :
  ?buf:Buffer.t ->
  (Codasyl_dml.Ast.stmt * (Codasyl_dml.Engine.outcome, string) result) list ->
  string

val format_daplex :
  ?buf:Buffer.t ->
  (Daplex_dml.Ast.stmt * (Daplex_dml.Engine.outcome, string) result) list ->
  string

val format_sql :
  ?buf:Buffer.t ->
  (Relational.Sql_ast.stmt * (Relational.Engine.outcome, string) result) list ->
  string

val format_dli :
  ?buf:Buffer.t ->
  (Hierarchical.Dli_ast.call * (Hierarchical.Engine.outcome, string) result) list ->
  string

val format_abdl : ?buf:Buffer.t -> (Abdl.Ast.request * Abdl.Exec.result) list -> string

(** [table header rows] — align a result table in columns. *)
val table : string list -> Abdm.Value.t list list -> string

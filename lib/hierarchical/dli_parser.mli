(** Line-oriented parser for DL/I calls (keywords case-insensitive;
    [--] comments):
    {v
    GU patient(pid = 5) visit(cost > 100)
    GN
    GN treatment
    GNP visit
    ISRT patient(pid = 5) visit (vdate = '6 JUL', cost = 50)
    ISRT patient (pname = 'Doe', pid = 9)
    REPL (cost = 75)
    DLET
    v}
    ISRT reads the call in one pass: each parenthesised group is read
    once, and is the field list when the call ends after it, otherwise
    the qualification of the segment before it. *)

(** {!Abdl.Syntax.Parse_error}, shared by every LIL parser. *)
exception Parse_error of string

(** [call src] parses one call; a [;] may end it, and the text after that
    is lexed but not parsed. *)
val call : string -> Dli_ast.call

val program : string -> Dli_ast.call list

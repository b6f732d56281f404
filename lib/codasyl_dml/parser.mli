(** Line-oriented parser for CODASYL-DML transactions, e.g. the worked
    example of §VI.B.1:
    {v
    MOVE 'Advanced Database' TO title IN course
    FIND ANY course USING title IN course
    GET course
    v}
    Keywords are case-insensitive; one statement per line ([;] separators
    also accepted); [--] comments. The §VI.B.4 loop idiom is a block
    between a line [PERFORM UNTIL EOF] (or [PERFORM UNTIL EOF = 'YES'])
    and a line [END PERFORM]; each line is told apart by at most three
    tokens. *)

(** {!Abdl.Syntax.Parse_error}, shared by every LIL parser. *)
exception Parse_error of string

(** [stmt src] parses one statement; a [;] may end it, and the text after
    that is lexed but not parsed. *)
val stmt : string -> Ast.stmt

(** [program src] parses a whole transaction script. *)
val program : string -> Ast.stmt list

(** Recursive-descent parser for textual ABDL requests.

    Accepted surface syntax (keywords case-insensitive):
    {v
    RETRIEVE ((FILE = course) AND (title = 'DB')) (title, credits) BY course
    RETRIEVE ((FILE = employee)) (AVG(salary)) BY dept
    INSERT (<FILE, course>, <title, 'DB'>, <credits, 3>)
    INSERT (<FILE, memo>, <id, 1> | 'a record''s textual portion')
    DELETE ((FILE = course) AND (credits < 3))
    UPDATE ((FILE = employee) AND (name = 'x')) (salary = salary + 100)
    v}
    An INSERT's record names a file ([<FILE, name>]) and no attribute
    twice. Boolean qualifications may nest AND/OR freely; they are
    normalised to the disjunctive normal form of the kernel model
    ({!Syntax.condition}). The parser reads {!Lexer.cursor} through
    {!Syntax}. *)

(** {!Syntax.Parse_error}, shared by every LIL parser. *)
exception Parse_error of string

(** [request src] parses a single ABDL request; a [;] may end it, and the
    text after that is lexed but not parsed. *)
val request : string -> Ast.request

(** [transaction src] parses requests separated by [;] (trailing [;]
    allowed). *)
val transaction : string -> Ast.transaction

(** [query src] parses a bare qualification, e.g.
    ["(FILE = course) AND (credits >= 3)"]. *)
val query : string -> Abdm.Query.t

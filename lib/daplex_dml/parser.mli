(** Parser for the Daplex DML subset. Keywords case-insensitive:
    {v
    FOR EACH s IN student SUCH THAT major(s) = 'CS' AND name(advisor(s)) = 'Hsiao'
      PRINT name(s), major(s)
    END
    CREATE course (title = 'Robotics', semester = 'Fall', credits = 4)
    CREATE student UNDER person 17 (major = 'History')
    DESTROY c IN course SUCH THAT title(c) = 'Robotics'
    v} *)

(** {!Abdl.Syntax.Parse_error}, shared by every LIL parser. *)
exception Parse_error of string

(** [stmt src] parses one statement; a [;] may end it, and the text after
    that is lexed but not parsed. *)
val stmt : string -> Ast.stmt

val program : string -> Ast.stmt list

(** Parser for the SQL subset (keywords case-insensitive; [;] separators):
    {v
    CREATE TABLE employee (name CHAR(25) UNIQUE, salary INT, dept CHAR(10))
    SELECT name, salary FROM employee WHERE salary > 50000 AND dept = 'cs'
    SELECT dept, AVG(salary) FROM employee GROUP BY dept
    SELECT COUNT( * ) FROM employee
    INSERT INTO employee (name, salary, dept) VALUES ('Hsiao', 72000, 'cs')
    UPDATE employee SET salary = 80000 WHERE name = 'Hsiao'
    DELETE FROM employee WHERE dept = 'math'
    v} *)

(** {!Abdl.Syntax.Parse_error}, shared by every LIL parser. *)
exception Parse_error of string

(** The parsers read {!Abdl.Lexer.cursor} through {!Abdl.Syntax}, which
    lexes only as far as they read: of a syntax error and a lexical error
    (an integer literal past the [int] range is one), the one earlier in
    the text is raised, as [Parse_error] either way. WHERE is
    {!Abdl.Syntax.condition}, ABDL's qualification grammar. *)

(** [stmt src] parses one statement; a [;] may end it, and the text after
    that is lexed but not parsed. *)
val stmt : string -> Sql_ast.stmt

(** [program src] parses every [;]-separated statement before returning. *)
val program : string -> Sql_ast.stmt list

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

exception Parse_error of string

(** The parsers read {!Abdl.Lexer.cursor}, which lexes only as far as
    they read: of a syntax error and a lexical error, the one earlier in
    the text is raised (as [Parse_error] either way). An integer literal
    past the [int] range raises [Failure], as [int_of_string] does. *)

(** [stmt src] parses one statement; a [;] may end it, and the text after
    that is lexed but not parsed. *)
val stmt : string -> Sql_ast.stmt

(** [program src] parses every [;]-separated statement before returning. *)
val program : string -> Sql_ast.stmt list

(** Parser for the hierarchical schema DDL (keywords case-insensitive;
    [--] comments):
    {v
    DATABASE medical
    SEGMENT patient (pname CHAR(20), pid INT)
    SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)
    SEGMENT treatment PARENT visit (drug CHAR(12))
    v} *)

(** {!Abdl.Syntax.Parse_error}, shared by every LIL parser. *)
exception Parse_error of string

val schema : string -> Types.schema

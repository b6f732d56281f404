(** The token-cursor prelude every LIL parser shares: ABDL, SQL,
    CODASYL-DML, Daplex-DML, DL/I and the hierarchical DDL all read an
    {!Lexer.cursor} through these helpers and raise one [Parse_error].

    Keywords are tested case-insensitively in place ({!kw_equal}), so a
    parse copies no identifier to compare it. The cursor lexes only as
    far as a parser reads: of a syntax error and a lexical error, the one
    earlier in the text is raised. *)

exception Parse_error of string

(** [fail fmt ...] raises [Parse_error] with the formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

(** [parse f src] runs [f] over a cursor on [src]; a lexical error
    becomes [Parse_error] with the lexer's message. *)
val parse : (Lexer.cursor -> 'a) -> string -> 'a

(** [statement f src] parses one statement with [f]; a [;] may end it,
    and the text after that is lexed but not parsed. *)
val statement : (Lexer.cursor -> 'a) -> string -> 'a

(** [program f src] parses every [;]-separated statement with [f]. *)
val program : (Lexer.cursor -> 'a) -> string -> 'a list

val peek : Lexer.cursor -> Lexer.token

val advance : Lexer.cursor -> unit

(** [next c] is [peek c], consumed. *)
val next : Lexer.cursor -> Lexer.token

(** [kw_equal name kw] is [String.uppercase_ascii name = kw] for an
    upper-case [kw], without the copy. *)
val kw_equal : string -> string -> bool

(** [kw_is tok kw]: [tok] is an identifier spelling keyword [kw]. *)
val kw_is : Lexer.token -> string -> bool

(** [accept_kw c kw] consumes the lookahead when it is keyword [kw]. *)
val accept_kw : Lexer.cursor -> string -> bool

val ident : Lexer.cursor -> string

val expect : Lexer.cursor -> Lexer.token -> unit

val expect_kw : Lexer.cursor -> string -> unit

(** [literal c] reads an integer, float, quoted string, [NULL], or a bare
    identifier taken as a string (the paper writes [(FILE = course)]). *)
val literal : Lexer.cursor -> Abdm.Value.t

(** [literal_of_ident name] is what {!literal} makes of identifier [name]. *)
val literal_of_ident : string -> Abdm.Value.t

(** [comma_separated c one] reads [one (, one)*], in order. *)
val comma_separated : Lexer.cursor -> (Lexer.cursor -> 'a) -> 'a list

(** [relop c] reads one of [= <> != < <= > >=]. *)
val relop : Lexer.cursor -> Abdm.Predicate.op

(** [comparison c] reads [attribute relop literal]. *)
val comparison : Lexer.cursor -> Abdm.Predicate.t

(** [condition c] reads comparisons under AND, OR and parentheses (AND
    binds tighter) and normalises them to the kernel's disjunctive normal
    form: the qualification grammar of ABDL and of SQL's WHERE. *)
val condition : Lexer.cursor -> Abdm.Query.t

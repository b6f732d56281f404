(** Hand-written lexer for the textual ABDL surface syntax. *)

type token =
  | IDENT of string
  | INT of int
  | FLOAT of float
  | STRING of string  (** single-quoted literal, quotes stripped *)
  | LPAREN
  | RPAREN
  | COMMA
  | SEMI
  | BAR  (** [|], before a record's text in an INSERT *)
  | OP of string  (** [= <> < <= > >= + - * /] *)
  | EOF

exception Lex_error of string

(** A cursor over [src] with one token of lookahead, lexed on demand:
    a parser that reads it lexes no further than it parses, and no token
    list is built. Every LIL parser reads one, through {!Syntax}. *)
type cursor

val cursor : string -> cursor

(** [peek c] is the lookahead token, lexing it if it is not yet; [EOF]
    from the end of the text on. Raises [Lex_error] on an unterminated
    string, an unexpected character or an integer literal outside the
    [int] range. *)
val peek : cursor -> token

(** [advance c] consumes the lookahead token (lexing it first if it was
    never peeked); at the end it stays at [EOF]. *)
val advance : cursor -> unit

val token_to_string : token -> string

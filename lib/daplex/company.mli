(** A second functional schema fixture exercising the transformation
    corners the University schema does not: a three-level ISA chain
    (worker → engineer → senior_engineer), a {e self-referential}
    many-to-many function (client.partners over client), two independent
    many-to-many pairs, several one-to-many functions, and an overlap
    between engineer and manager. *)

val schema : unit -> Schema.t

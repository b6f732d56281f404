(** Execution of the Daplex DML subset against an AB(functional) database —
    the kernel mapping subsystem of the MLDS functional language interface.
    Function application follows the ISA hierarchy (value inheritance):
    [name(s)] on a student reads the [person] record reached through the
    [person_student] set. *)

type t

(** [create kernel transform] — a Daplex session over a loaded
    AB(functional) database. *)
val create : Mapping.Kernel.t -> Transformer.Transform.t -> t

type outcome =
  | Printed of (string * Abdm.Value.t) list list
      (** one row per iterated entity; columns labelled by the printed
          path; multi-valued results joined with [", "] *)
  | Created of int  (** unique key of the new entity *)
  | Destroyed of int  (** entities destroyed (hierarchy records counted once
                          per entity) *)

val execute : t -> Ast.stmt -> (outcome, string) result

val run_program : t -> Ast.stmt list -> (Ast.stmt * (outcome, string) result) list

val outcome_to_string : outcome -> string

(** The kernel mapping subsystem (KMS) and kernel controller (KC) of the
    CODASYL-DML language interface: translates each DML statement into one
    or more ABDL requests (Chapter VI) and executes them against the
    attribute-based kernel, maintaining the Currency Indicator Table, the
    User Work Area, and the per-set result buffers.

    The same engine serves both targets: an AB(network) database (every
    non-SYSTEM set member-held — the Emdi translation) and an
    AB(functional) database (set handling switched on the set's origin in
    the functional schema — the thesis's modified translation). *)

type outcome =
  | Done of string  (** statement completed; human-readable note *)
  | Found of { dbkey : int; record_type : string }  (** FIND success *)
  | End_of_set  (** FIND ran off the set occurrence / found nothing *)
  | Got of (string * Abdm.Value.t) list  (** GET result, now in the UWA *)
  | Stored of { dbkey : int }  (** STORE success *)

(** [execute session stmt] runs one statement. [Error msg] covers both
    syntactic misuse (unknown record/set) and the paper's constraint
    aborts (automatic-insertion CONNECT, duplicate STORE, overlap
    violation, ERASE of a referenced record, ERASE ALL). *)
val execute : Session.t -> Ast.stmt -> (outcome, string) result

(** [run_program session stmts] executes statements in order (continuing
    past errors, like the interactive interface), pairing each with its
    outcome. *)
val run_program :
  Session.t -> Ast.stmt list -> (Ast.stmt * (outcome, string) result) list

val outcome_to_string : outcome -> string

(** ABDM queries: keyword predicates combined in disjunctive normal form
    (paper §II.C.1). A query is a disjunction of conjunctions; a record
    satisfies the query when it satisfies every predicate of at least one
    conjunction. *)

type conjunction = Predicate.t list

type t = conjunction list

(** The query satisfied by every record (a single empty conjunction). *)
val always : t

(** The query satisfied by no record (an empty disjunction). *)
val never : t

(** [conj preds] is the single-conjunction query [preds]. *)
val conj : Predicate.t list -> t

(** [disj qs] is the union of the given queries' conjunctions. *)
val disj : t list -> t

(** [conj_and q1 q2] distributes: every conjunction of [q1] extended with
    every conjunction of [q2] (DNF product). *)
val conj_and : t -> t -> t

(** [satisfies query record] tests the record against the DNF query. *)
val satisfies : t -> Record.t -> bool

(** [file_of_conjunction preds] is the file named by the first
    [(FILE = f)] equality in the conjunction, if any — the planner's way
    of narrowing a disjunct to one file's access paths. *)
val file_of_conjunction : conjunction -> string option

(** [files query] lists the file names constrained by an [(FILE = f)]
    equality in each conjunction: [Some names] when *every* conjunction
    names a file (so evaluation may be restricted to those files), [None]
    otherwise. *)
val files : t -> string list option

val conjunction_to_string : conjunction -> string

val to_string : t -> string

(** [to_buffer buf q] appends [to_string q] to [buf]. *)
val to_buffer : Buffer.t -> t -> unit

(** Query plans — what {!Store.explain} returns and what the planner
    inside {!Store.select} executes. One {!step} per DNF disjunct,
    describing the access path chosen for that conjunction and the
    predicates left to re-check on the candidates it yields.

    The cost signal is posting-list cardinality: a secondary-index
    posting participates in the access path only when it is more
    selective than half its file (otherwise merging it costs more than
    the scan work it saves), participating postings are intersected
    smallest-first, and when {e no} posting is selective enough the
    planner flips back to a plain file scan. *)

type kind =
  | Point  (** an equality posting list *)
  | Range  (** an ordered-index range, for [<] [<=] [>] [>=] *)
  | Window
      (** a lower ([>] [>=]) and an upper ([<] [<=]) bound on one
          attribute, answered as one range of its ordered index *)

(** One secondary-index lookup feeding the access path: one predicate,
    or a window's lower bound and [probe_upper]. [probe_card] is the cost
    signal: the posting-list cardinality for a point probe, the postings'
    summed cardinality across the range or window (an exact key count: a
    record holds at most one value per attribute). *)
type probe = {
  probe_pred : Predicate.t;
  probe_upper : Predicate.t option;  (** a window's upper bound *)
  probe_kind : kind;
  probe_card : int;
}

type access =
  | Store_scan of { rows : int }
      (** no FILE predicate: every record is examined *)
  | File_scan of { file : string; rows : int }
      (** no usable (or no selective-enough) index: scan the file *)
  | Index_probe of {
      file : string;
      probes : probe list;  (** intersected, smallest posting first *)
      rows : int;  (** candidate rows after intersecting the probes *)
      file_rows : int;  (** what the fallback scan would have read *)
    }

type step = {
  conjunction : Query.conjunction;
  access : access;
  residual : Predicate.t list;
      (** predicates not answered by the access path; every candidate is
          re-checked against them (in fact against the whole query, so
          the planner can never return a false positive) *)
}

type t = step list

val access_rows : access -> int

val kind_name : kind -> string

(** Stable multi-line rendering — the [.explain] output, pinned by the
    golden tests in [test/test_abdm.ml]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** Hierarchical spans over the MLDS translation pipeline.

    A span is one timed region of a request's life — a parse, a KMS
    translation, one kernel (ABDL) request, one backend's share of an MBDS
    broadcast — with a name, string attributes, a duration, and children.
    Completed root spans accumulate per domain and are taken (and printed
    or exported) by the front-end after each transaction.

    {2 Domain-safety rule}

    Tracing follows the same ownership discipline as {!Abdm.Store} (see
    DESIGN.md): every domain records into {e its own} span stack and
    root buffer (domain-local storage), so pool worker domains may open
    spans concurrently with the orchestrating domain without any locking
    on the hot path. Spans completed on a worker domain are parentless on
    that domain; the orchestrating domain calls {!adopt_remote} {e while
    the pool is quiescent} (after every share it handed out has finished
    — the same happens-before edge the store contract relies on) to
    splice them into its currently open span, ordered by their [index].
    An MBDS controller therefore emits the same span tree whichever
    domains ran its shares.

    Tracing is off by default; a disabled [with_span] is a single atomic
    load. *)

type t = {
  span_name : string;
  mutable attrs : (string * string) list;
  index : int;  (** deterministic ordering among siblings (backend index) *)
  domain : int;  (** id of the domain that recorded the span *)
  start_s : float;
  mutable dur_s : float;
  mutable children : t list;
      (** reverse completion order while the span is open; final order
          (by [index], then completion) once closed *)
}

(** Turn tracing on or off, process-wide. *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** [with_span ?index ?attrs name f] runs [f] inside a span when tracing
    is enabled (and is exactly [f ()] otherwise). [attrs] is evaluated
    only when tracing is on. An exception closes the span with an
    ["error"] attribute and re-raises. *)
val with_span :
  ?index:int -> ?attrs:(unit -> (string * string) list) -> string ->
  (unit -> 'a) -> 'a

(** Splice every root span completed on {e other} domains into this
    domain's innermost open span (ordered by [index]). Must be called
    while those domains are quiescent — e.g. by the MBDS controller right
    after [Mbds.Pool.run] returns. Roots adopted with no span open
    become roots of this domain. *)
val adopt_remote : unit -> unit

(** Take (and clear) the completed root spans of the calling domain, in
    completion order. *)
val take_roots : unit -> t list

(** Drop every recorded span on every domain. Requires all domains
    quiescent (no traced work in flight). *)
val reset : unit -> unit

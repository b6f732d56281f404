(** Flight recorder: a fixed-size ring of per-request events plus a
    slow-query log, both behind one mutex.

    The ring is stored as columns (an int array, a float array, and one
    column each for language, opcode and outcome), so {!record} writes
    one slot in place and allocates nothing: the ring holds no block per
    event for the major heap to keep. A writer holds the mutex for one
    slot's stores; a reader holds it while it copies at most
    [max_events] slots out into {!event} records. A reader therefore
    never observes a half-written ("torn") event. The columns grow in
    segments of a few hundred slots, each allocated by its first write,
    so a ring that never fills never pays for its whole capacity.

    Overwrite semantics: the ring keeps the last [capacity] events. An
    event older than [next_seq - capacity] is gone; readers that fall
    behind are told how many events they lost via [dropped].

    Cursor contract: every event carries a globally unique, strictly
    increasing [seq]. [events_since ~cursor] returns events with
    [seq >= cursor] in ascending order together with the next cursor;
    polling with the returned cursor never yields the same event twice. *)

type outcome =
  | O_ok
  | O_error of string  (** wire error kind, e.g. "exec_error" *)
  | O_rejected
      (** admission control refused the request (queue full, or its
          connection's lane at its quota) *)

type event = {
  seq : int;  (** unique, strictly increasing *)
  ts_s : float;  (** wall-clock completion time *)
  session : int;  (** 0 when the request had no session *)
  request_id : int;
  language : string;  (** "-" when unknown *)
  opcode : string;  (** [Wire.opcode_name] of the request *)
  latency_s : float;
  bytes_in : int;  (** encoded request size *)
  bytes_out : int;  (** encoded response size *)
  outcome : outcome;
  batch : int;  (** executor batch id; 0 outside a batch *)
}

type slow_entry = {
  s_seq : int;
  s_ts_s : float;
  s_session : int;
  s_request_id : int;
  s_language : string;
  s_opcode : string;
  s_latency_s : float;
  s_statement : string;  (** the statement text as submitted *)
  s_plan : string;  (** the planner's [.explain] rendering *)
  s_span : string;  (** span path, e.g. [server.request#42] *)
}

type t

(** [create ~capacity ~slow_capacity ~slow_threshold_s ()] — both
    capacities must be positive. *)
val create :
  capacity:int -> slow_capacity:int -> slow_threshold_s:float -> unit -> t

val capacity : t -> int

(** Sequence number the next recorded event will get (= count of events
    ever recorded). *)
val next_seq : t -> int

val slow_next_seq : t -> int
val slow_threshold_s : t -> float

(** Record one completed request: one slot written in place under the
    mutex, no allocation. Safe from any domain. Returns the event's
    [seq]. *)
val record :
  t ->
  ts_s:float ->
  session:int ->
  request_id:int ->
  language:string ->
  opcode:string ->
  latency_s:float ->
  bytes_in:int ->
  bytes_out:int ->
  outcome:outcome ->
  batch:int ->
  int

(** Record one slow-query entry (the caller decides, typically by
    comparing against {!slow_threshold_s}). Allocates the entry; safe
    from any domain. *)
val record_slow :
  t ->
  ts_s:float ->
  session:int ->
  request_id:int ->
  language:string ->
  opcode:string ->
  latency_s:float ->
  statement:string ->
  plan:string ->
  span:string ->
  int

(** [events_since t ~cursor ~max_events] — up to [max_events] events
    with [seq >= cursor], ascending, plus [(next_cursor, dropped)].
    [dropped] counts events overwritten before this reader saw them. *)
val events_since :
  t -> cursor:int -> max_events:int -> event list * int * int

val slow_since :
  t -> cursor:int -> max_events:int -> slow_entry list * int * int

(** One compact JSON object (no trailing newline). *)
val event_json : event -> string

val slow_json : slow_entry -> string

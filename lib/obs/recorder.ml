type outcome = O_ok | O_error of string | O_rejected | O_shed

type event = {
  seq : int;
  ts_s : float;
  session : int;
  request_id : int;
  language : string;
  opcode : string;
  latency_s : float;
  bytes_in : int;
  bytes_out : int;
  outcome : outcome;
  batch : int;
}

type slow_entry = {
  s_seq : int;
  s_ts_s : float;
  s_session : int;
  s_request_id : int;
  s_language : string;
  s_opcode : string;
  s_latency_s : float;
  s_statement : string;
  s_plan : string;
  s_span : string;
}

(* The event ring is columns, not records: a write fills one slot of
   each column in place, so recording allocates nothing and the ring
   holds no per-event block for the major heap to keep. One mutex guards
   the ring and the slow log; a writer holds it for one slot's stores,
   a reader while it copies at most [max_events] slots out into
   [event]s. Under the lock slot [seq mod cap] holds exactly [seq] for
   every seq in [max 0 (next - cap), next), so no seq is stored.

   Storage grows with use: the columns come in segments of
   [segment_slots] slots, each allocated by the first write into it, so
   a ring that never fills never pays for its whole capacity. *)

let segment_slots = 256

(* the int fields of a slot, in column order *)
let i_session = 0
let i_request = 1
let i_bytes_in = 2
let i_bytes_out = 3
let i_batch = 4
let int_fields = 5

type segment = {
  ints : int array;  (* [int_fields] per slot *)
  floats : Float.Array.t;  (* ts_s, latency_s per slot *)
  languages : string array;
  opcodes : string array;
  outcomes : outcome array;
}

let unallocated =
  {
    ints = [||];
    floats = Float.Array.create 0;
    languages = [||];
    opcodes = [||];
    outcomes = [||];
  }

let new_segment n =
  {
    ints = Array.make (n * int_fields) 0;
    floats = Float.Array.make (2 * n) 0.;
    languages = Array.make n "";
    opcodes = Array.make n "";
    outcomes = Array.make n O_ok;
  }

let no_slow =
  {
    s_seq = -1;
    s_ts_s = 0.;
    s_session = 0;
    s_request_id = 0;
    s_language = "";
    s_opcode = "";
    s_latency_s = 0.;
    s_statement = "";
    s_plan = "";
    s_span = "";
  }

type t = {
  mx : Mutex.t;
  cap : int;
  segments : segment array;  (* [unallocated] until first written *)
  mutable next : int;
  slow : slow_entry array;  (* entry [s] at [s mod length] *)
  mutable slow_next : int;
  threshold : float;
}

let create ~capacity ~slow_capacity ~slow_threshold_s () =
  if capacity <= 0 || slow_capacity <= 0 then
    invalid_arg "Obs.Recorder: capacity must be positive";
  {
    mx = Mutex.create ();
    cap = capacity;
    segments =
      Array.make ((capacity + segment_slots - 1) / segment_slots) unallocated;
    next = 0;
    slow = Array.make slow_capacity no_slow;
    slow_next = 0;
    threshold = slow_threshold_s;
  }

let capacity t = t.cap

let locked_int t f =
  Mutex.lock t.mx;
  let v = f t in
  Mutex.unlock t.mx;
  v

let next_seq t = locked_int t (fun t -> t.next)

let slow_next_seq t = locked_int t (fun t -> t.slow_next)

let slow_threshold_s t = t.threshold

let segment_for t slot =
  let i = slot / segment_slots in
  let s = t.segments.(i) in
  if s != unallocated then s
  else begin
    let s = new_segment (min segment_slots (t.cap - (i * segment_slots))) in
    t.segments.(i) <- s;
    s
  end

let record t ~ts_s ~session ~request_id ~language ~opcode ~latency_s ~bytes_in
    ~bytes_out ~outcome ~batch =
  Mutex.lock t.mx;
  let seq = t.next in
  let slot = seq mod t.cap in
  let s = segment_for t slot in
  let j = slot mod segment_slots in
  let b = j * int_fields in
  s.ints.(b + i_session) <- session;
  s.ints.(b + i_request) <- request_id;
  s.ints.(b + i_bytes_in) <- bytes_in;
  s.ints.(b + i_bytes_out) <- bytes_out;
  s.ints.(b + i_batch) <- batch;
  Float.Array.set s.floats (2 * j) ts_s;
  Float.Array.set s.floats ((2 * j) + 1) latency_s;
  s.languages.(j) <- language;
  s.opcodes.(j) <- opcode;
  s.outcomes.(j) <- outcome;
  t.next <- seq + 1;
  Mutex.unlock t.mx;
  seq

let record_slow t ~ts_s ~session ~request_id ~language ~opcode ~latency_s
    ~statement ~plan ~span =
  Mutex.lock t.mx;
  let s_seq = t.slow_next in
  t.slow.(s_seq mod Array.length t.slow) <-
    {
      s_seq;
      s_ts_s = ts_s;
      s_session = session;
      s_request_id = request_id;
      s_language = language;
      s_opcode = opcode;
      s_latency_s = latency_s;
      s_statement = statement;
      s_plan = plan;
      s_span = span;
    };
  t.slow_next <- s_seq + 1;
  Mutex.unlock t.mx;
  s_seq

let event_at t seq =
  let slot = seq mod t.cap in
  let s = t.segments.(slot / segment_slots) in
  let j = slot mod segment_slots in
  let b = j * int_fields in
  {
    seq;
    ts_s = Float.Array.get s.floats (2 * j);
    session = s.ints.(b + i_session);
    request_id = s.ints.(b + i_request);
    language = s.languages.(j);
    opcode = s.opcodes.(j);
    latency_s = Float.Array.get s.floats ((2 * j) + 1);
    bytes_in = s.ints.(b + i_bytes_in);
    bytes_out = s.ints.(b + i_bytes_out);
    outcome = s.outcomes.(j);
    batch = s.ints.(b + i_batch);
  }

(* The ring keeps seqs [max 0 (next - cap), next): a cursor below that
   lost [lo - cursor] seqs to overwrites. [max_events] bounds the reply,
   not the window: the cursor stops after the last seq returned, so a
   slow reader catches up across polls instead of skipping events. *)
let read_since ~next ~cap ~cursor ~max_events ~get =
  let max_events = if max_events <= 0 then 1 else max_events in
  let cursor = if cursor < 0 then 0 else cursor in
  if cursor >= next then ([], cursor, 0)
  else begin
    let lo = max cursor (next - cap) in
    let stop = min next (lo + max_events) in
    let acc = ref [] in
    for seq = stop - 1 downto lo do
      acc := get seq :: !acc
    done;
    (!acc, stop, lo - cursor)
  end

let events_since t ~cursor ~max_events =
  Mutex.lock t.mx;
  let r =
    read_since ~next:t.next ~cap:t.cap ~cursor ~max_events ~get:(event_at t)
  in
  Mutex.unlock t.mx;
  r

let slow_since t ~cursor ~max_events =
  Mutex.lock t.mx;
  let n = Array.length t.slow in
  let r =
    read_since ~next:t.slow_next ~cap:n ~cursor ~max_events ~get:(fun seq ->
        t.slow.(seq mod n))
  in
  Mutex.unlock t.mx;
  r

let outcome_to_string = function
  | O_ok -> "ok"
  | O_error kind -> "error:" ^ kind
  | O_rejected -> "rejected"
  | O_shed -> "shed"

let event_json e =
  Printf.sprintf
    "{\"seq\":%d,\"ts\":%s,\"session\":%d,\"request\":%d,\"language\":%s,\"opcode\":%s,\"latency_s\":%s,\"bytes_in\":%d,\"bytes_out\":%d,\"outcome\":%s,\"batch\":%d}"
    e.seq (Json.number e.ts_s) e.session e.request_id (Json.quote e.language)
    (Json.quote e.opcode)
    (Json.number e.latency_s)
    e.bytes_in e.bytes_out
    (Json.quote (outcome_to_string e.outcome))
    e.batch

let slow_json s =
  Printf.sprintf
    "{\"seq\":%d,\"ts\":%s,\"session\":%d,\"request\":%d,\"language\":%s,\"opcode\":%s,\"latency_s\":%s,\"statement\":%s,\"plan\":%s,\"span\":%s}"
    s.s_seq (Json.number s.s_ts_s) s.s_session s.s_request_id
    (Json.quote s.s_language) (Json.quote s.s_opcode)
    (Json.number s.s_latency_s)
    (Json.quote s.s_statement) (Json.quote s.s_plan) (Json.quote s.s_span)

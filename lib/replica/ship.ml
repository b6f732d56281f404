(* The primary side of WAL streaming replication.

   One [t] per primary, owning the (single) attached WAL. It runs no
   thread of its own. The executor drives three entry points at serial
   points — [publish] after every covering fsync, [fence] around the
   checkpoint's WAL truncation, [service] when a subscriber needs a
   bootstrap snapshot — and each only updates the state under [mx] and
   wakes the server's I/O loop. Each connected standby is a stream on
   that loop ([attach]): the loop hands it every frame the standby sends
   ([receive]: [Protocol.Ack]s, which advance the acked position and
   feed the lag gauges), and whenever the connection's unsent bytes are
   under the loop's bound it calls [pump], which reads committed frames
   from the log file by path, queues [Protocol.Frames] (or a snapshot,
   or a heartbeat) and returns when the next heartbeat is due.

   Correctness around truncation: the log file is renamed by
   [Wal.truncate_to] while [pump] reads it by path, so a chunk read can
   race the rename and return bytes from the {e new} file at an offset
   that only meant something in the old one. Three fences close this:
   the executor raises [fence] before the truncation and drops it only
   after [publish] has exposed the new generation (nothing is read
   while fenced, and a read that overlapped the window is discarded by
   re-checking fence + generation after the read); every chunk must
   parse as whole CRC-valid frames before it ships; and a subscriber
   whose position cannot be remapped through the truncation history
   falls back to a snapshot bootstrap — the path that must exist anyway
   for a standby arriving after the log was truncated. *)

type boot_state =
  | B_no
  | B_wanted  (* waiting for the executor to run [service] *)
  | B_ready of int * int * string  (* gen, pos, snapshot text *)

type sub = {
  mutable s_gen : int;  (* primary-coordinate position of the next byte *)
  mutable s_pos : int;
  mutable s_acked_pos : int;  (* standby-confirmed durable, same gen *)
  mutable s_sent_frames : int;
  mutable s_acked_frames : int;
  (* (chunk end position, cumulative frames sent) per in-flight chunk,
     oldest first: acks carry byte positions, the frame-lag gauge needs
     frame counts *)
  mutable s_inflight : (int * int) list;
  mutable s_boot : boot_state;
  mutable s_alive : bool;
  mutable s_last_send : float;
  mutable s_bad_reads : int;  (* consecutive unparseable chunks *)
  (* the next frame does not fit what is left of the window: nothing is
     read until an ack comes *)
  mutable s_window_full : bool;
}

type t = {
  wal : Mlds.Wal.t;
  wal_path : string;
  snapshot : unit -> (string, string) result;  (* executor-thread only *)
  inject : (unit -> unit) -> unit;  (* runs a closure on the executor *)
  wake : unit -> unit;  (* makes the I/O loop pump every stream *)
  mx : Mutex.t;
  mutable pub_gen : int;  (* published durable coordinates *)
  mutable pub_pos : int;
  (* recent truncations, newest first: (new_gen, keep_from, base) *)
  mutable truncs : (int * int * int) list;
  mutable fenced : bool;
  mutable subs : sub list;
  mutable stopped : bool;
}

let chunk_max = 256 * 1024

let window_max = 1024 * 1024  (* max unacked bytes per subscriber *)

let heartbeat_every_s = 1.0

let g_lag_bytes = Obs.Metrics.gauge "repl.lag_bytes"

let g_lag_frames = Obs.Metrics.gauge "repl.lag_frames"

let g_lag_s = Obs.Metrics.gauge "repl.lag_s"

let g_standbys = Obs.Metrics.gauge "repl.standbys"

let c_boots = Obs.Metrics.counter "repl.snapshot_bootstraps"

let c_shipped = Obs.Metrics.counter "repl.frames_shipped"

let live t = List.filter (fun s -> s.s_alive) t.subs

(* caller holds t.mx: the largest lag of a live subscriber, in bytes and
   in frames *)
let lags_locked t =
  List.fold_left
    (fun (b, f) s ->
      let lag =
        if s.s_gen = t.pub_gen then Stdlib.max 0 (t.pub_pos - s.s_acked_pos)
        else t.pub_pos
      in
      (Stdlib.max b lag, Stdlib.max f (s.s_sent_frames - s.s_acked_frames)))
    (0, 0) (live t)

(* caller holds t.mx *)
let update_lag_locked t =
  Obs.Metrics.set_gauge g_standbys (float_of_int (List.length (live t)));
  let bytes, frames = lags_locked t in
  Obs.Metrics.set_gauge g_lag_bytes (float_of_int bytes);
  Obs.Metrics.set_gauge g_lag_frames (float_of_int frames)

let create ~wal ~snapshot ~inject ~wake =
  {
    wal;
    wal_path = Mlds.Wal.path wal;
    snapshot;
    inject;
    wake;
    mx = Mutex.create ();
    pub_gen = Mlds.Wal.generation wal;
    pub_pos = Mlds.Wal.synced_position wal;
    truncs = [];
    fenced = false;
    subs = [];
    stopped = false;
  }

(* Update the state under the lock, then wake the loop if a stream may
   now have something to send. *)
let update_and_wake t f =
  let streams = Mutex.protect t.mx (fun () -> f (); t.subs <> []) in
  if streams then t.wake ()

(* A flusher or the executor, after every covering fsync: expose the new
   durable frontier and maintain the truncation history [pump] remaps
   through. *)
let publish t =
  let gen = Mlds.Wal.generation t.wal in
  let pos = Mlds.Wal.synced_position t.wal in
  update_and_wake t @@ fun () ->
  if gen <> t.pub_gen then begin
    (match Mlds.Wal.last_truncation t.wal with
    | Some (g, keep_from, base) when g = gen && gen = t.pub_gen + 1 ->
      t.truncs <- (g, keep_from, base) :: List.filteri (fun i _ -> i < 7) t.truncs
    | Some _ | None ->
      (* a generation gap we cannot account for: drop the history, every
         lagging subscriber re-bootstraps (correct, just slower) *)
      t.truncs <- []);
    t.pub_gen <- gen
  end;
  t.pub_pos <- pos;
  update_lag_locked t

(* Executor, around the checkpoint's WAL rename. *)
let fence t entering = update_and_wake t (fun () -> t.fenced <- entering)

(* Executor, at a serial point: cut one snapshot and hand it to every
   subscriber waiting for a bootstrap. The dump carries NO %WAL stamp —
   the standby's own log coordinates start from zero; the primary-side
   resume point travels in the Snapshot message instead. *)
let service t =
  let wanting =
    Mutex.protect t.mx (fun () ->
        List.filter (fun s -> s.s_alive && s.s_boot = B_wanted) t.subs)
  in
  if wanting <> [] then begin
    let result = t.snapshot () in
    (* position (not synced_position): the dump contains every executed
       mutation, including any whose frames are not yet fsynced — the
       stream resumes past all of them *)
    let gen = Mlds.Wal.generation t.wal in
    let pos = Mlds.Wal.position t.wal in
    update_and_wake t (fun () ->
        List.iter
          (fun s ->
            match result with
            | Ok text -> s.s_boot <- B_ready (gen, pos, text)
            | Error _ -> s.s_alive <- false)
          wanting)
  end

(* --- the stream ----------------------------------------------------------- *)

(* Longest prefix of [data] that is whole, CRC-valid, decodable frames:
   a chunk cut at [chunk_max] may end mid-frame, and a read that raced a
   rename lands misaligned (virtually always caught here or by the
   generation re-check). Only frames that end within the first [upto]
   bytes count. Returns (byte length, frame count). *)
let frame_prefix data ~upto =
  let total = Stdlib.min upto (String.length data) in
  let rec walk off n =
    if total - off < 8 then (off, n)
    else
      let plen = Int32.to_int (String.get_int32_be data off) in
      let crc = Int32.to_int (String.get_int32_be data (off + 4)) land 0xFFFFFFFF in
      if plen < 1 || plen > 1 lsl 24 || total - off - 8 < plen then (off, n)
      else
        let payload = String.sub data (off + 8) plen in
        if Mlds.Wal.crc32 payload <> crc then (off, n)
        else
          match Mlds.Wal.decode_entry payload with
          | Error _ -> (off, n)
          | Ok _ -> walk (off + 8 + plen) (n + 1)
  in
  walk 0 0

type decision =
  | D_stop
  | D_wait of float  (* nothing to send before this time *)
  | D_request_boot
  | D_boot of int * int * string
  | D_chunk of int * int * int * int  (* gen, pos, len, window left *)
  | D_heartbeat of int * int

(* caller holds t.mx; may mutate s to remap across a truncation *)
let rec decide t s =
  if t.stopped || not s.s_alive then D_stop
  else
    match s.s_boot with
    | B_wanted -> D_wait Float.infinity
    | B_ready (gen, pos, text) ->
      s.s_boot <- B_no;
      D_boot (gen, pos, text)
    | B_no ->
      if t.fenced then D_wait Float.infinity
      else if s.s_gen > t.pub_gen || (s.s_gen = t.pub_gen && s.s_pos > t.pub_pos)
      then
        (* claims to be ahead of the primary: impossible history (e.g. a
           standby of a restored-from-older-snapshot primary) *)
        D_request_boot
      else if s.s_gen < t.pub_gen then begin
        match List.find_opt (fun (g, _, _) -> g = s.s_gen + 1) t.truncs with
        | Some (g, keep_from, base) when s.s_pos >= keep_from ->
          (* the subscriber's next byte survived the truncation: same
             byte, new coordinates — no data moves, the stream continues *)
          s.s_gen <- g;
          s.s_pos <- base + (s.s_pos - keep_from);
          s.s_acked_pos <- s.s_pos;
          s.s_inflight <- [];
          s.s_window_full <- false;
          decide t s
        | _ ->
          (* position predates the truncation (those frames are gone) or
             the history was dropped: full snapshot bootstrap *)
          D_request_boot
      end
      else begin
        let window_left = window_max - (s.s_pos - s.s_acked_pos) in
        let avail = t.pub_pos - s.s_pos in
        let due = s.s_last_send +. heartbeat_every_s in
        if avail > 0 && window_left > 0 && not s.s_window_full then
          D_chunk (s.s_gen, s.s_pos, Stdlib.min avail chunk_max, window_left)
        else if Obs.Clock.now_s () >= due then D_heartbeat (s.s_gen, s.s_pos)
        else D_wait due
      end

let drop_sub t s =
  Mutex.protect t.mx (fun () ->
      s.s_alive <- false;
      t.subs <- List.filter (fun s' -> s' != s) t.subs;
      update_lag_locked t)

(* Ask the executor for a bootstrap snapshot ([service]). *)
let request_boot t s =
  Mutex.protect t.mx (fun () -> s.s_boot <- B_wanted);
  Obs.Metrics.incr c_boots;
  t.inject (fun () -> service t)

(* The I/O loop, while [s]'s connection has room: queue through [send]
   everything due, and return when the next heartbeat is ([None]: close
   the connection). The window bounds what one call queues. *)
let pump t s send =
  let rec go () =
    match Mutex.protect t.mx (fun () -> decide t s) with
    | D_stop -> None
    | D_wait due -> Some due
    | D_request_boot ->
      request_boot t s;
      go ()
    | D_boot (gen, pos, text) ->
      send
        (Protocol.encode_down
           (Protocol.Snapshot { gen; pos; ts = Unix.gettimeofday (); text }));
      Mutex.protect t.mx (fun () ->
          s.s_gen <- gen;
          s.s_pos <- pos;
          s.s_acked_pos <- pos;
          s.s_sent_frames <- 0;
          s.s_acked_frames <- 0;
          s.s_inflight <- [];
          s.s_last_send <- Obs.Clock.now_s ();
          s.s_bad_reads <- 0;
          s.s_window_full <- false;
          update_lag_locked t);
      go ()
    | D_heartbeat (gen, pos) ->
      send
        (Protocol.encode_down
           (Protocol.Heartbeat { gen; pos; ts = Unix.gettimeofday () }));
      Mutex.protect t.mx (fun () -> s.s_last_send <- Obs.Clock.now_s ());
      go ()
    | D_chunk (gen, pos, len, window_left) ->
      let chunk = Mlds.Wal.read_range t.wal_path ~pos ~len in
      (* the read happened without the lock; discard it unless the world
         it came from is provably still the published one *)
      let valid =
        Mutex.protect t.mx (fun () ->
            (not t.fenced) && t.pub_gen = gen && s.s_gen = gen)
      in
      let data = match chunk with Some data when valid -> data | _ -> "" in
      let plen, nframes = frame_prefix data ~upto:window_left in
      if plen > 0 then begin
        let payload = if plen = String.length data then data else String.sub data 0 plen in
        send
          (Protocol.encode_down
             (Protocol.Frames
                { gen; start_pos = pos; ts = Unix.gettimeofday (); data = payload }));
        Mutex.protect t.mx (fun () ->
            s.s_bad_reads <- 0;
            s.s_pos <- pos + plen;
            s.s_sent_frames <- s.s_sent_frames + nframes;
            s.s_inflight <- s.s_inflight @ [ (s.s_pos, s.s_sent_frames) ];
            s.s_last_send <- Obs.Clock.now_s ();
            update_lag_locked t);
        Obs.Metrics.incr ~by:nframes c_shipped;
        go ()
      end
      else if fst (frame_prefix data ~upto:len) > 0 then begin
        (* whole frames, but the first does not fit what is left of the
           window: an ack reopens it (counting this as a bad read would
           end in a snapshot bootstrap whenever the window fills) *)
        Mutex.protect t.mx (fun () -> s.s_window_full <- true);
        go ()
      end
      else begin
        (* an unparseable read, or one that raced the truncation (or the
           file vanished): retry shortly, when the next decide sees the
           published remap; a region still unparseable after that cannot
           be shipped — fall back to a snapshot rather than spin *)
        let reboot =
          Mutex.protect t.mx (fun () ->
              s.s_bad_reads <- s.s_bad_reads + 1;
              s.s_bad_reads > 5)
        in
        if reboot then begin
          request_boot t s;
          go ()
        end
        else Some (Obs.Clock.now_s () +. 0.002)
      end
  in
  go ()

(* The I/O loop, with each frame the standby sends. *)
let receive t s payload =
  match Protocol.decode_up payload with
  | Error _ -> false
  | Ok (Protocol.Ack { gen; pos; ts }) ->
    Mutex.protect t.mx (fun () ->
        if s.s_alive && gen = s.s_gen then begin
          s.s_acked_pos <- Stdlib.max s.s_acked_pos pos;
          s.s_window_full <- false;
          let rec drop = function
            | (endp, cum) :: rest when endp <= pos ->
              s.s_acked_frames <- cum;
              drop rest
            | rest -> rest
          in
          s.s_inflight <- drop s.s_inflight
        end;
        Obs.Metrics.set_gauge g_lag_s (Stdlib.max 0. (Unix.gettimeofday () -. ts));
        update_lag_locked t);
    true

(* The I/O loop, on [Repl_hello]: the standby's stream, or [None] once
   shipping has stopped. *)
let attach t ~gen ~pos ~boot =
  let s =
    {
      s_gen = gen;
      s_pos = pos;
      s_acked_pos = pos;
      s_sent_frames = 0;
      s_acked_frames = 0;
      s_inflight = [];
      s_boot = B_no;
      s_alive = true;
      s_last_send = Obs.Clock.now_s ();
      s_bad_reads = 0;
      s_window_full = false;
    }
  in
  let added =
    Mutex.protect t.mx (fun () ->
        if not t.stopped then begin
          t.subs <- s :: t.subs;
          update_lag_locked t
        end;
        not t.stopped)
  in
  if not added then None
  else begin
    if boot then request_boot t s;
    Some
      {
        Server.Core.receive = receive t s;
        pump = pump t s;
        closed = (fun () -> drop_sub t s);
      }
  end

let standbys t = Mutex.protect t.mx (fun () -> List.length (live t))

let lag_bytes t = Mutex.protect t.mx (fun () -> fst (lags_locked t))

(* Stop shipping: no chunk is read from here on, and the loop closes
   every subscriber's connection on its next pump. Must run BEFORE any
   shutdown-time checkpoint truncates the WAL. *)
let shutdown t =
  update_and_wake t (fun () ->
      t.stopped <- true;
      List.iter (fun s -> s.s_alive <- false) t.subs;
      update_lag_locked t)

(* The primary side of WAL streaming replication.

   One [t] per primary, owning the (single) attached WAL. It runs no
   thread of its own. The executor drives two entry points — [publish]
   after every covering fsync, [service] when a subscriber needs a
   bootstrap snapshot — and each only updates the state under [mx] and
   wakes the server's I/O loop. Each connected standby is a stream on
   that loop ([attach]): the loop hands it every frame the standby sends
   ([receive]: [Protocol.Ack]s, which advance the acked position and
   feed the lag gauges), and whenever the connection's unsent bytes are
   under the loop's bound it calls [pump], which reads committed frames
   from the log file by path, queues [Protocol.Frames] (or a snapshot,
   or a heartbeat) and returns when the next heartbeat is due.

   Every position is an LSN of the log ({!Mlds.Wal}), which no
   checkpoint moves. [Wal.truncate_to] renames a new file over the log
   while [pump] reads it by path; [Wal.read_from] maps the LSN to an
   offset with the marker of whichever file it opened, where the same
   LSN names the same bytes. A subscriber whose next byte lies below
   that file's first LSN (a truncation dropped it) gets a snapshot
   bootstrap — the path that must exist anyway for a standby arriving
   after the log was truncated. So does one whose chunk does not parse
   as whole CRC-valid frames: with nothing racing the read, that is
   corruption.

   Only the standby's acks raise its acked position. A standby that is
   to be bootstrapped starts below the position it claimed, and queueing
   the snapshot caps it below the snapshot's LSN, so it lags until it
   acks the installed snapshot; no frame is read for it before that
   ack. *)

type boot_state =
  | B_no
  | B_wanted  (* waiting for the executor to run [service] *)
  | B_ready of int * string  (* LSN, snapshot text *)

type sub = {
  mutable s_pos : int;  (* LSN of the next byte to send *)
  mutable s_acked_pos : int;  (* standby-confirmed durable *)
  mutable s_sent_frames : int;
  mutable s_acked_frames : int;
  (* (chunk end position, cumulative frames sent) per in-flight chunk,
     oldest first: acks carry byte positions, the frame-lag gauge needs
     frame counts *)
  mutable s_inflight : (int * int) list;
  mutable s_boot : boot_state;
  mutable s_alive : bool;
  mutable s_last_send : float;
  (* the next frame does not fit what is left of the window: nothing is
     read until an ack comes *)
  mutable s_window_full : bool;
}

type t = {
  wal : Mlds.Wal.t;
  wal_path : string;
  snapshot : stamp:int * int -> (string, string) result;  (* executor-thread only *)
  inject : (unit -> unit) -> unit;  (* runs a closure on the executor *)
  wake : unit -> unit;  (* makes the I/O loop pump every stream *)
  mx : Mutex.t;
  mutable pub_pos : int;  (* the published durable LSN *)
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
   in frames. A queued snapshot's LSN may lie past the published
   position (it holds frames not yet fsynced): it counts as sent. *)
let lags_locked t =
  List.fold_left
    (fun (b, f) s ->
      ( Stdlib.max b (Stdlib.max t.pub_pos s.s_pos - s.s_acked_pos),
        Stdlib.max f (s.s_sent_frames - s.s_acked_frames) ))
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
    pub_pos = Mlds.Wal.synced_position wal;
    subs = [];
    stopped = false;
  }

(* Update the state under the lock, then wake the loop if a stream may
   now have something to send. *)
let update_and_wake t f =
  let streams = Mutex.protect t.mx (fun () -> f (); t.subs <> []) in
  if streams then t.wake ()

(* A flusher, after every covering fsync: expose the new durable
   frontier. Flushers of other logs call it too, so a late caller may
   hold an older position: LSNs only grow, and the larger one stands. *)
let publish t =
  let pos = Mlds.Wal.synced_position t.wal in
  update_and_wake t @@ fun () ->
  t.pub_pos <- Stdlib.max t.pub_pos pos;
  update_lag_locked t

(* Executor, at a serial point: cut one snapshot and hand it to every
   subscriber waiting for a bootstrap. The dump is stamped with the
   log's generation and LSN at this instant; the standby heads its own
   log with the same LSN. *)
let service t =
  let wanting =
    Mutex.protect t.mx (fun () ->
        List.filter (fun s -> s.s_alive && s.s_boot = B_wanted) t.subs)
  in
  if wanting <> [] then begin
    (* position (not synced_position): the dump contains every executed
       mutation, including any whose frames are not yet fsynced — the
       stream resumes past all of them *)
    let pos = Mlds.Wal.position t.wal in
    let result = t.snapshot ~stamp:(Mlds.Wal.generation t.wal, pos) in
    update_and_wake t (fun () ->
        List.iter
          (fun s ->
            match result with
            | Ok text -> s.s_boot <- B_ready (pos, text)
            | Error _ -> s.s_alive <- false)
          wanting)
  end

(* --- the stream ----------------------------------------------------------- *)

(* Longest prefix of [data] that is whole, CRC-valid, decodable frames:
   a chunk cut at [chunk_max] may end mid-frame. Only frames that end
   within the first [upto] bytes count. Returns (byte length, frame
   count). *)
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
  | D_boot of int * string
  | D_chunk of int * int * int  (* pos, len, window left *)
  | D_heartbeat of int

(* caller holds t.mx *)
let decide t s =
  if t.stopped || not s.s_alive then D_stop
  else
    match s.s_boot with
    | B_wanted -> D_wait Float.infinity
    | B_ready (pos, text) ->
      s.s_boot <- B_no;
      D_boot (pos, text)
    | B_no ->
      (* nothing unacked: the window takes the next frame whatever its
         size, so a frame longer than the window still ships *)
      let window_left =
        if s.s_pos = s.s_acked_pos then max_int
        else window_max - (s.s_pos - s.s_acked_pos)
      in
      let avail = t.pub_pos - s.s_pos in
      let due = s.s_last_send +. heartbeat_every_s in
      if avail > 0 && window_left > 0 && not s.s_window_full then
        D_chunk (s.s_pos, Stdlib.min avail chunk_max, window_left)
      else if Obs.Clock.now_s () >= due then D_heartbeat s.s_pos
      else D_wait due

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
    | D_boot (pos, text) ->
      send
        (Protocol.encode_down
           (Protocol.Snapshot { pos; ts = Unix.gettimeofday (); text }));
      Mutex.protect t.mx (fun () ->
          s.s_pos <- pos;
          (* the standby's ack of the installed snapshot raises it *)
          s.s_acked_pos <- Stdlib.min s.s_acked_pos (pos - 1);
          s.s_sent_frames <- 0;
          s.s_acked_frames <- 0;
          s.s_inflight <- [];
          s.s_last_send <- Obs.Clock.now_s ();
          (* no frame is read until that ack comes *)
          s.s_window_full <- true;
          update_lag_locked t);
      go ()
    | D_heartbeat pos ->
      send
        (Protocol.encode_down
           (Protocol.Heartbeat { pos; ts = Unix.gettimeofday () }));
      Mutex.protect t.mx (fun () -> s.s_last_send <- Obs.Clock.now_s ());
      go ()
    | D_chunk (pos, len, window_left) ->
      let data = Mlds.Wal.read_from t.wal_path ~lsn:pos ~len in
      let data = Option.value ~default:"" data in
      let plen, nframes = frame_prefix data ~upto:window_left in
      if plen > 0 then begin
        let payload = if plen = String.length data then data else String.sub data 0 plen in
        send
          (Protocol.encode_down
             (Protocol.Frames
                { start_pos = pos; ts = Unix.gettimeofday (); data = payload }));
        Mutex.protect t.mx (fun () ->
            s.s_pos <- pos + plen;
            s.s_sent_frames <- s.s_sent_frames + nframes;
            s.s_inflight <- s.s_inflight @ [ (s.s_pos, s.s_sent_frames) ];
            s.s_last_send <- Obs.Clock.now_s ();
            update_lag_locked t);
        Obs.Metrics.incr ~by:nframes c_shipped;
        go ()
      end
      else if fst (frame_prefix data ~upto:max_int) > 0 then begin
        (* whole frames, but the first does not fit what is left of the
           window: an ack reopens it *)
        Mutex.protect t.mx (fun () -> s.s_window_full <- true);
        go ()
      end
      else begin
        (* the bytes lie below the file's first LSN (a truncation
           dropped them) or do not parse (corruption): bootstrap *)
        request_boot t s;
        go ()
      end
  in
  go ()

(* The I/O loop, with each frame the standby sends. *)
let receive t s payload =
  match Protocol.decode_up payload with
  | Error _ -> false
  | Ok (Protocol.Ack { pos; ts }) ->
    Mutex.protect t.mx (fun () ->
        if s.s_alive then begin
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
   shipping has stopped. A standby that claims bytes the log never held
   (e.g. one of a primary restored from an older snapshot) is
   bootstrapped. *)
let attach t ~pos ~boot =
  let boot = boot || pos > Mlds.Wal.position t.wal in
  let s =
    {
      s_pos = pos;
      s_acked_pos = (if boot then pos - 1 else pos);
      s_sent_frames = 0;
      s_acked_frames = 0;
      s_inflight = [];
      s_boot = B_no;
      s_alive = true;
      s_last_send = Obs.Clock.now_s ();
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
   every subscriber's connection on its next pump. *)
let shutdown t =
  update_and_wake t (fun () ->
      t.stopped <- true;
      List.iter (fun s -> s.s_alive <- false) t.subs;
      update_lag_locked t)

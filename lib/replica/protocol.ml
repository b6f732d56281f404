(* The replication stream's message layer. Framing is borrowed wholesale
   from the wire protocol (u32 big-endian length prefix, 16 MiB ceiling:
   the primary's I/O loop frames and splits with [Server.Wire.frame] /
   [next_frame], the standby's thread uses [write_frame] / [read_frame]);
   what travels inside is
   this module's tagged payloads, not request/response frames — after
   the [Repl_hello] handshake the connection leaves the RPC protocol for
   good.

   Down (primary → standby):
     'S' snapshot   pos u64 · ts str · text str
     'F' frames     start_pos u64 · ts str · data str
     'H' heartbeat  pos u64 · ts str
   Up (standby → primary):
     'A' ack        pos u64 · ts str

   Every [pos] is an LSN of the primary's WAL ({!Mlds.Wal}), which no
   checkpoint moves.

   [ts] is the sender's clock at send time, echoed verbatim in the ack —
   the primary derives repl.lag_s from the echo without any clock
   agreement between the two processes. It rides as a ["%h"]-rendered
   string so the float round-trips exactly. *)

type down =
  | Snapshot of { pos : int; ts : float; text : string }
      (* bootstrap: [text] is a full snapshot (Persist v2 format) stamped
         [%WAL gen=<g> pos=<pos>]; the frame stream resumes at LSN [pos] *)
  | Frames of { start_pos : int; ts : float; data : string }
      (* [data] is whole WAL frames, verbatim from the primary's log,
         covering LSNs [start_pos, start_pos + length data) *)
  | Heartbeat of { pos : int; ts : float }

type up =
  | Ack of { pos : int; ts : float }
      (* everything below LSN [pos] is fsynced in the standby's own log;
         [ts] echoes the triggering message's stamp *)

(* --- codec: the wire protocol's primitives ------------------------------ *)

module Wire = Server.Wire

let put_ts b ts = Wire.put_str b (Printf.sprintf "%h" ts)

exception Bad of string

let get_ts c =
  match float_of_string_opt (Wire.get_str c "timestamp") with
  | Some ts -> ts
  | None -> raise (Bad "bad timestamp")

(* [message c tag] reads the body after [tag]; the payload must end
   with it *)
let decode message data =
  let c = { Wire.data; pos = 0 } in
  match message c (Char.chr (Wire.get_u8 c "tag")) with
  | msg -> Result.map (fun () -> msg) (Wire.finished c "message")
  | exception Wire.Truncated what -> Error ("truncated " ^ what)
  | exception Bad why -> Error why

let encode_down msg =
  let b = Buffer.create 64 in
  (match msg with
  | Snapshot { pos; ts; text } ->
    Buffer.add_char b 'S';
    Wire.put_u64 b pos;
    put_ts b ts;
    Wire.put_str b text
  | Frames { start_pos; ts; data } ->
    Buffer.add_char b 'F';
    Wire.put_u64 b start_pos;
    put_ts b ts;
    Wire.put_str b data
  | Heartbeat { pos; ts } ->
    Buffer.add_char b 'H';
    Wire.put_u64 b pos;
    put_ts b ts);
  Buffer.contents b

let decode_down =
  decode (fun c tag ->
      match tag with
      | 'S' ->
        let pos = Wire.get_u64 c "snapshot" in
        let ts = get_ts c in
        let text = Wire.get_str c "snapshot" in
        Snapshot { pos; ts; text }
      | 'F' ->
        let start_pos = Wire.get_u64 c "frames" in
        let ts = get_ts c in
        let data = Wire.get_str c "frames" in
        Frames { start_pos; ts; data }
      | 'H' ->
        let pos = Wire.get_u64 c "heartbeat" in
        let ts = get_ts c in
        Heartbeat { pos; ts }
      | tag -> raise (Bad (Printf.sprintf "unknown down tag %C" tag)))

let encode_up msg =
  let b = Buffer.create 32 in
  (match msg with
  | Ack { pos; ts } ->
    Buffer.add_char b 'A';
    Wire.put_u64 b pos;
    put_ts b ts);
  Buffer.contents b

let decode_up =
  decode (fun c tag ->
      match tag with
      | 'A' ->
        let pos = Wire.get_u64 c "ack" in
        let ts = get_ts c in
        Ack { pos; ts }
      | tag -> raise (Bad (Printf.sprintf "unknown up tag %C" tag)))

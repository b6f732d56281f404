(* The replication stream's message layer. Framing is borrowed wholesale
   from the wire protocol (u32 big-endian length prefix, 16 MiB ceiling:
   the primary's I/O loop frames and splits with [Server.Wire.frame] /
   [next_frame], the standby's thread uses [write_frame] / [read_frame]);
   what travels inside is
   this module's tagged payloads, not request/response frames — after
   the [Repl_hello] handshake the connection leaves the RPC protocol for
   good.

   Down (primary → standby):
     'S' snapshot   gen u32 · pos u32 · ts str · text str
     'F' frames     gen u32 · start_pos u32 · ts str · data str
     'H' heartbeat  gen u32 · pos u32 · ts str
   Up (standby → primary):
     'A' ack        gen u32 · pos u32 · ts str

   [ts] is the sender's clock at send time, echoed verbatim in the ack —
   the primary derives repl.lag_s from the echo without any clock
   agreement between the two processes. It rides as a ["%h"]-rendered
   string so the float round-trips exactly. *)

type down =
  | Snapshot of { gen : int; pos : int; ts : float; text : string }
      (* bootstrap: [text] is a full snapshot (Persist v2 format, no
         %WAL stamp — the standby's log coordinates are its own); the
         frame stream resumes at ([gen], [pos]) *)
  | Frames of { gen : int; start_pos : int; ts : float; data : string }
      (* [data] is whole WAL frames, verbatim from the primary's log,
         covering primary bytes [start_pos, start_pos + length data) of
         generation [gen] *)
  | Heartbeat of { gen : int; pos : int; ts : float }

type up =
  | Ack of { gen : int; pos : int; ts : float }
      (* everything up to ([gen], [pos]) is fsynced in the standby's own
         log; [ts] echoes the triggering message's stamp *)

(* --- codec ---------------------------------------------------------------- *)

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Replica.Protocol: u32 range";
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_ts b ts = put_str b (Printf.sprintf "%h" ts)

type cursor = { data : string; mutable pos : int }

exception Bad of string

let need c n = if c.pos + n > String.length c.data then raise (Bad "truncated")

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let b i = Char.code c.data.[c.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  v

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_ts c =
  match float_of_string_opt (get_str c) with
  | Some ts -> ts
  | None -> raise (Bad "bad timestamp")

let closed c = if c.pos <> String.length c.data then raise (Bad "trailing bytes")

let encode_down msg =
  let b = Buffer.create 64 in
  (match msg with
  | Snapshot { gen; pos; ts; text } ->
    Buffer.add_char b 'S';
    put_u32 b gen;
    put_u32 b pos;
    put_ts b ts;
    put_str b text
  | Frames { gen; start_pos; ts; data } ->
    Buffer.add_char b 'F';
    put_u32 b gen;
    put_u32 b start_pos;
    put_ts b ts;
    put_str b data
  | Heartbeat { gen; pos; ts } ->
    Buffer.add_char b 'H';
    put_u32 b gen;
    put_u32 b pos;
    put_ts b ts);
  Buffer.contents b

let decode_down data =
  let c = { data; pos = 0 } in
  match
    match Char.chr (get_u8 c) with
    | 'S' ->
      let gen = get_u32 c in
      let pos = get_u32 c in
      let ts = get_ts c in
      let text = get_str c in
      Snapshot { gen; pos; ts; text }
    | 'F' ->
      let gen = get_u32 c in
      let start_pos = get_u32 c in
      let ts = get_ts c in
      let data = get_str c in
      Frames { gen; start_pos; ts; data }
    | 'H' ->
      let gen = get_u32 c in
      let pos = get_u32 c in
      let ts = get_ts c in
      Heartbeat { gen; pos; ts }
    | tag -> raise (Bad (Printf.sprintf "unknown down tag %C" tag))
  with
  | msg ->
    (match closed c with () -> Ok msg | exception Bad why -> Error why)
  | exception Bad why -> Error why

let encode_up msg =
  let b = Buffer.create 32 in
  (match msg with
  | Ack { gen; pos; ts } ->
    Buffer.add_char b 'A';
    put_u32 b gen;
    put_u32 b pos;
    put_ts b ts);
  Buffer.contents b

let decode_up data =
  let c = { data; pos = 0 } in
  match
    match Char.chr (get_u8 c) with
    | 'A' ->
      let gen = get_u32 c in
      let pos = get_u32 c in
      let ts = get_ts c in
      Ack { gen; pos; ts }
    | tag -> raise (Bad (Printf.sprintf "unknown up tag %C" tag))
  with
  | msg ->
    (match closed c with () -> Ok msg | exception Bad why -> Error why)
  | exception Bad why -> Error why

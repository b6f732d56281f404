type request =
  | Login of { user : string; language : string; db : string }
  | Submit of string
  | Begin_txn
  | Commit_txn
  | Abort_txn
  | Logout
  | Ping
  | Bye
  | Explain of string
  | Stats
  | Tail of { cursor : int; slow_cursor : int; max_events : int }
  | Checkpoint
  | Promote
  | Repl_hello of { gen : int; pos : int; boot : bool }

type err_kind =
  | Parse_error
  | Exec_error
  | Bad_session
  | Txn_busy
  | Shutting_down
  | Bad_request
  | Read_only

type response =
  | Logged_in of int
  | Output of string
  | Err of err_kind * string
  | Overloaded
  | Pong
  | Goodbye

type 'a frame = { version : int; request_id : int; session_id : int; msg : 'a }

let protocol_version = 1

let max_frame_bytes = 16 * 1024 * 1024

let err_kind_name = function
  | Parse_error -> "parse-error"
  | Exec_error -> "exec-error"
  | Bad_session -> "bad-session"
  | Txn_busy -> "txn-busy"
  | Shutting_down -> "shutting-down"
  | Bad_request -> "bad-request"
  | Read_only -> "read-only"

(* --- primitive writers --------------------------------------------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.put_u32: out of range";
  put_u8 b (v lsr 24);
  put_u8 b (v lsr 16);
  put_u8 b (v lsr 8);
  put_u8 b v

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

(* --- primitive readers --------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

exception Truncated of string

let need c n what =
  if c.pos + n > String.length c.data then raise (Truncated what)

let get_u8 c what =
  need c 1 what;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c what =
  need c 4 what;
  let b i = Char.code c.data.[c.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  v

let get_str c what =
  let n = get_u32 c what in
  need c n what;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let finished c what =
  if c.pos <> String.length c.data then
    Error (Printf.sprintf "%s: %d trailing bytes" what
             (String.length c.data - c.pos))
  else Ok ()

(* --- header -------------------------------------------------------------- *)

let put_header b f opcode =
  put_u8 b f.version;
  put_u32 b f.request_id;
  put_u32 b f.session_id;
  put_u8 b opcode

let get_header c =
  match
    let version = get_u8 c "header" in
    if version <> protocol_version then
      Error (Printf.sprintf "unsupported protocol version %d" version)
    else begin
      let request_id = get_u32 c "header" in
      let session_id = get_u32 c "header" in
      let opcode = get_u8 c "header" in
      Ok (version, request_id, session_id, opcode)
    end
  with
  | r -> r
  | exception Truncated what -> Error ("truncated " ^ what)

(* --- requests ------------------------------------------------------------ *)

let request_opcode = function
  | Login _ -> 0x01
  | Submit _ -> 0x02
  | Begin_txn -> 0x03
  | Commit_txn -> 0x04
  | Abort_txn -> 0x05
  | Logout -> 0x06
  | Ping -> 0x07
  | Bye -> 0x08
  | Explain _ -> 0x09
  | Stats -> 0x0A
  | Tail _ -> 0x0B
  | Checkpoint -> 0x0C
  | Promote -> 0x0D
  | Repl_hello _ -> 0x0E

(* indexed by wire code less one *)
let opcode_names =
  [| "login"; "submit"; "begin"; "commit"; "abort"; "logout"; "ping"; "bye";
     "explain"; "stats"; "tail"; "checkpoint"; "promote"; "repl-hello" |]

let opcode_index msg = request_opcode msg - 1

let opcode_name msg = opcode_names.(opcode_index msg)

let encode_request f =
  let b = Buffer.create 64 in
  put_header b f (request_opcode f.msg);
  (match f.msg with
  | Login { user; language; db } ->
    put_str b user;
    put_str b language;
    put_str b db
  | Submit src -> put_str b src
  | Explain src -> put_str b src
  | Tail { cursor; slow_cursor; max_events } ->
    put_u32 b cursor;
    put_u32 b slow_cursor;
    put_u32 b max_events
  | Repl_hello { gen; pos; boot } ->
    put_u32 b gen;
    put_u32 b pos;
    put_u8 b (if boot then 1 else 0)
  | Begin_txn | Commit_txn | Abort_txn | Logout | Ping | Bye | Stats
  | Checkpoint | Promote -> ());
  Buffer.contents b

let decode_request data =
  let c = { data; pos = 0 } in
  match get_header c with
  | Error _ as e -> e
  | Ok (version, request_id, session_id, opcode) ->
    let frame msg = { version; request_id; session_id; msg } in
    (match
       match opcode with
       | 0x01 ->
         let user = get_str c "login" in
         let language = get_str c "login" in
         let db = get_str c "login" in
         Ok (Login { user; language; db })
       | 0x02 -> Ok (Submit (get_str c "submit"))
       | 0x03 -> Ok Begin_txn
       | 0x04 -> Ok Commit_txn
       | 0x05 -> Ok Abort_txn
       | 0x06 -> Ok Logout
       | 0x07 -> Ok Ping
       | 0x08 -> Ok Bye
       | 0x09 -> Ok (Explain (get_str c "explain"))
       | 0x0A -> Ok Stats
       | 0x0B ->
         let cursor = get_u32 c "tail" in
         let slow_cursor = get_u32 c "tail" in
         let max_events = get_u32 c "tail" in
         Ok (Tail { cursor; slow_cursor; max_events })
       | 0x0C -> Ok Checkpoint
       | 0x0D -> Ok Promote
       | 0x0E ->
         let gen = get_u32 c "repl-hello" in
         let pos = get_u32 c "repl-hello" in
         let boot = get_u8 c "repl-hello" <> 0 in
         Ok (Repl_hello { gen; pos; boot })
       | op -> Error (Printf.sprintf "unknown request opcode 0x%02x" op)
     with
    | Ok msg ->
      (match finished c "request" with
      | Ok () -> Ok (frame msg)
      | Error _ as e -> e)
    | Error _ as e -> e
    | exception Truncated what -> Error ("truncated " ^ what ^ " body"))

(* --- encoded sizes -------------------------------------------------------
   Exact payload byte counts (excluding the 4-byte length prefix) without
   allocating an encoding — the flight recorder stamps these into every
   event as bytes_in / bytes_out. Kept next to the codec so a body change
   is a one-line change here too. *)

let header_bytes = 10 (* u8 version + u32 request_id + u32 session_id + u8 op *)

let str_bytes s = 4 + String.length s

let request_size = function
  | Login { user; language; db } ->
    header_bytes + str_bytes user + str_bytes language + str_bytes db
  | Submit src | Explain src -> header_bytes + str_bytes src
  | Tail _ -> header_bytes + 12
  | Repl_hello _ -> header_bytes + 9
  | Begin_txn | Commit_txn | Abort_txn | Logout | Ping | Bye | Stats
  | Checkpoint | Promote ->
    header_bytes

let response_size = function
  | Logged_in _ -> header_bytes + 4
  | Output out -> header_bytes + str_bytes out
  | Err (_, msg) -> header_bytes + 1 + str_bytes msg
  | Overloaded | Pong | Goodbye -> header_bytes

(* --- responses ----------------------------------------------------------- *)

let err_kind_code = function
  | Parse_error -> 0
  | Exec_error -> 1
  | Bad_session -> 2
  | Txn_busy -> 3
  | Shutting_down -> 4
  | Bad_request -> 5
  | Read_only -> 6

let err_kind_of_code = function
  | 0 -> Ok Parse_error
  | 1 -> Ok Exec_error
  | 2 -> Ok Bad_session
  | 3 -> Ok Txn_busy
  | 4 -> Ok Shutting_down
  | 5 -> Ok Bad_request
  | 6 -> Ok Read_only
  | c -> Error (Printf.sprintf "unknown error kind %d" c)

let response_opcode = function
  | Logged_in _ -> 0x81
  | Output _ -> 0x82
  | Err _ -> 0x83
  | Overloaded -> 0x84
  | Pong -> 0x85
  | Goodbye -> 0x86

(* sized exactly, so the buffer never regrows: one copy out of it *)
let encode_response f =
  let b = Buffer.create (response_size f.msg) in
  put_header b f (response_opcode f.msg);
  (match f.msg with
  | Logged_in id -> put_u32 b id
  | Output out -> put_str b out
  | Err (kind, msg) ->
    put_u8 b (err_kind_code kind);
    put_str b msg
  | Overloaded | Pong | Goodbye -> ());
  Buffer.contents b

let decode_response data =
  let c = { data; pos = 0 } in
  match get_header c with
  | Error _ as e -> e
  | Ok (version, request_id, session_id, opcode) ->
    let frame msg = { version; request_id; session_id; msg } in
    (match
       match opcode with
       | 0x81 -> Ok (Logged_in (get_u32 c "logged-in"))
       | 0x82 -> Ok (Output (get_str c "output"))
       | 0x83 ->
         let kind = get_u8 c "err" in
         let msg = get_str c "err" in
         (match err_kind_of_code kind with
         | Ok kind -> Ok (Err (kind, msg))
         | Error _ as e -> e)
       | 0x84 -> Ok Overloaded
       | 0x85 -> Ok Pong
       | 0x86 -> Ok Goodbye
       | op -> Error (Printf.sprintf "unknown response opcode 0x%02x" op)
     with
    | Ok msg ->
      (match finished c "response" with
      | Ok () -> Ok (frame msg)
      | Error _ as e -> e)
    | Error _ as e -> e
    | exception Truncated what -> Error ("truncated " ^ what ^ " body"))

(* --- framing --------------------------------------------------------------- *)

(* One exact-size frame: the prefix, then the payload copied once. *)
let frame payload =
  let len = String.length payload in
  if len > max_frame_bytes then invalid_arg "Wire.frame: frame too large";
  let frame = Bytes.create (len + 4) in
  Bytes.set_int32_be frame 0 (Int32.of_int len);
  Bytes.blit_string payload 0 frame 4 len;
  frame

(* The one reader of the length prefix and its limit. *)
let payload_length buf pos =
  let len = Int32.to_int (Bytes.get_int32_be buf pos) land 0xffff_ffff in
  if len > max_frame_bytes then
    Error
      (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len
         max_frame_bytes)
  else Ok len

let next_frame buf ~pos ~len =
  if len < 4 then Ok None
  else
    match payload_length buf pos with
    | Error _ as e -> e
    | Ok n when len - 4 < n -> Ok None
    | Ok n -> Ok (Some (Bytes.sub_string buf (pos + 4) n, n + 4))

(* --- blocking IO --------------------------------------------------------- *)

let rec really_write fd s pos len =
  if len > 0 then begin
    let n =
      try Unix.single_write fd s pos len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd s (pos + n) (len - n)
  end

let write_frame fd payload =
  let f = frame payload in
  really_write fd f 0 (Bytes.length f)

(* [Ok None] = EOF before the first byte; [Error] = EOF mid-frame. *)
let really_read fd buf n =
  let rec go pos =
    if pos >= n then Ok (Some buf)
    else
      match Unix.read fd buf pos (n - pos) with
      | 0 -> if pos = 0 then Ok None else Error "truncated frame"
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

let read_frame fd =
  match really_read fd (Bytes.create 4) 4 with
  | Ok None -> Ok None
  | Error _ as e -> e
  | Ok (Some prefix) ->
    (match payload_length prefix 0 with
    | Error _ as e -> e
    | Ok len ->
      (match really_read fd (Bytes.create len) len with
      | Ok None -> Error "truncated frame"
      | Ok (Some payload) -> Ok (Some (Bytes.unsafe_to_string payload))
      | Error _ as e -> e))

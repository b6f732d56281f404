(* The server tier, end to end: wire-codec properties, the session-handle
   layer (per-handle interface state, the per-database transaction
   fence), and real-socket integration — session isolation, typed
   overload rejection, disconnect-mid-transaction recovery, K concurrent
   clients, and graceful shutdown leaving a recoverable checkpoint.

   Network tests bind an ephemeral port (port = 0) so parallel test runs
   never collide. *)

module Wire = Server.Wire

let contains text needle = Daplex.Str_search.find text needle <> None

let university ?fs () =
  let t = Mlds.System.create ?fs () in
  match
    Mlds.System.define_functional t ~name:"university"
      ~ddl:Daplex.University.ddl Daplex.University.rows
  with
  | Ok () -> t
  | Error msg -> Alcotest.failf "define university: %s" msg

(* --- wire codec properties ----------------------------------------------- *)

let gen_str = QCheck2.Gen.(string_size ~gen:char (int_range 0 40))

let gen_request =
  let open QCheck2.Gen in
  oneof
    [
      map3
        (fun user language db -> Wire.Login { user; language; db })
        gen_str gen_str gen_str;
      map (fun s -> Wire.Submit s) gen_str;
      map (fun s -> Wire.Explain s) gen_str;
      map3
        (fun cursor slow_cursor max_events ->
          Wire.Tail { cursor; slow_cursor; max_events })
        (int_range 0 0xFFFFFFF) (int_range 0 0xFFFFFFF) (int_range 0 0xFFFF);
      map2
        (fun pos boot -> Wire.Repl_hello { pos; boot })
        (int_range 0 0xFFFFFFF) bool;
      oneofl
        [ Wire.Begin_txn; Wire.Commit_txn; Wire.Abort_txn; Wire.Logout;
          Wire.Ping; Wire.Bye; Wire.Stats; Wire.Checkpoint; Wire.Promote ];
    ]

(* responses whose strings come from [gen_s] *)
let gen_response_of gen_s =
  let open QCheck2.Gen in
  let kind =
    oneofl
      [ Wire.Parse_error; Wire.Exec_error; Wire.Bad_session; Wire.Txn_busy;
        Wire.Shutting_down; Wire.Bad_request; Wire.Read_only ]
  in
  oneof
    [
      map (fun id -> Wire.Logged_in id) (int_range 0 0xFFFFFFF);
      map (fun s -> Wire.Output s) gen_s;
      map2 (fun k s -> Wire.Err (k, s)) kind gen_s;
      oneofl [ Wire.Overloaded; Wire.Pong; Wire.Goodbye ];
    ]

let gen_response = gen_response_of gen_str

let gen_frame gen_msg =
  let open QCheck2.Gen in
  map3
    (fun request_id session_id msg ->
      { Wire.version = Wire.protocol_version; request_id; session_id; msg })
    (int_range 0 0xFFFFFFF) (int_range 0 0xFFFFFFF) gen_msg

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request frames round-trip" ~count:500
    (gen_frame gen_request) (fun f ->
      Wire.decode_request (Wire.encode_request f) = Ok f)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response frames round-trip" ~count:500
    (gen_frame gen_response) (fun f ->
      Wire.decode_response (Wire.encode_response f) = Ok f)

(* An [Output] reply is framed once: into the executor's bytes from its
   reply buffer ([output_frame], into bytes too small or large enough),
   or into one string from a text ([frame_output]). Both are the frame
   [encode_response] gives, and decode to the same reply. Ids cover the
   whole u32 range; an id outside it, or a text past the frame limit, is
   refused by all three with [Invalid_argument], before a byte is
   written (the server then sends an error frame). *)
let prop_output_frame =
  let open QCheck2.Gen in
  let id = oneof [ int_range 0 0xFFFF_FFFF; oneofl [ 0; 0xFFFF_FFFF ] ] in
  let bad_id = oneofl [ -1; 0x1_0000_0000; max_int; min_int ] in
  let gen =
    frequency
      [
        ( 8,
          map4
            (fun r s text into -> `Ok (r, s, text, into))
            id id
            (string_size ~gen:char (oneof [ int_range 0 40; int_range 0 70_000 ]))
            (oneofl [ 0; 18; 4096; 80_000 ]) );
        1, map2 (fun r s -> `Bad_id (r, s)) bad_id id;
        1, map2 (fun r s -> `Bad_id (s, r)) bad_id id;
        1, pure `Too_long;
      ]
  in
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let buffer text =
    let b = Buffer.create (String.length text) in
    Buffer.add_string b text;
    b
  in
  QCheck2.Test.make ~name:"output prefix + text = encoded Output frame" ~count:300 gen
    (function
      | `Ok (request_id, session_id, text, into) ->
        let f =
          { Wire.version = Wire.protocol_version; request_id; session_id;
            msg = Wire.Output text }
        in
        let want = Bytes.to_string (Wire.frame (Wire.encode_response f)) in
        let into = Bytes.make into '?' in
        let b = Wire.output_frame ~into ~request_id ~session_id (buffer text) in
        let framed = Bytes.sub_string b 0 (Wire.output_head_bytes + String.length text) in
        Wire.output_head_bytes = 18
        && (b == into) = (Bytes.length into >= String.length want)
        && String.equal framed want
        && String.equal (Wire.frame_output ~request_id ~session_id text) want
        && Wire.decode_response (String.sub framed 4 (String.length framed - 4)) = Ok f
      | `Bad_id (request_id, session_id) ->
        let f =
          { Wire.version = Wire.protocol_version; request_id; session_id;
            msg = Wire.Output "x" }
        in
        let into = Bytes.make 64 '?' in
        refused (fun () -> Wire.output_frame ~into ~request_id ~session_id (buffer "x"))
        && Bytes.equal into (Bytes.make 64 '?')
        && refused (fun () -> Wire.frame_output ~request_id ~session_id "x")
        && refused (fun () -> Wire.encode_response f)
      | `Too_long ->
        (* the shortest text whose frame is past the limit *)
        let text = String.make (Wire.max_frame_bytes - 13) 'x' in
        refused (fun () ->
            Wire.output_frame ~into:(Bytes.create 0) ~request_id:1 ~session_id:1
              (buffer text))
        && refused (fun () -> Wire.frame_output ~request_id:1 ~session_id:1 text)
        && refused (fun () -> Wire.frame (String.make (18 + String.length text - 4) 'x')))

(* [write_frame (encode_response f)] puts on the wire exactly what the
   two-step encoding did: a buffer holding the u32 length prefix and the
   payload, the payload itself built field by field. Outputs range from
   empty to past 64 KiB. *)
let two_step_response_frame (f : Wire.response Wire.frame) =
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xff)) in
  let u32 b v = List.iter (fun sh -> u8 b (v lsr sh)) [ 24; 16; 8; 0 ] in
  let str b s = u32 b (String.length s); Buffer.add_string b s in
  let p = Buffer.create 64 in
  u8 p f.version;
  u32 p f.request_id;
  u32 p f.session_id;
  (match f.msg with
  | Logged_in id -> u8 p 0x81; u32 p id
  | Output out -> u8 p 0x82; str p out
  | Err (kind, msg) ->
    u8 p 0x83;
    u8 p
      (match kind with
      | Parse_error -> 0 | Exec_error -> 1 | Bad_session -> 2 | Txn_busy -> 3
      | Shutting_down -> 4 | Bad_request -> 5 | Read_only -> 6);
    str p msg
  | Overloaded -> u8 p 0x84
  | Pong -> u8 p 0x85
  | Goodbye -> u8 p 0x86);
  let payload = Buffer.contents p in
  let b = Buffer.create (String.length payload + 4) in
  str b payload;
  Buffer.contents b

let written_frame payload =
  let file = Filename.temp_file "wire" ".frame" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> Wire.write_frame fd payload);
      In_channel.with_open_bin file In_channel.input_all)

let prop_write_frame_two_step =
  let big =
    QCheck2.Gen.(
      string_size ~gen:char
        (oneof [ int_range 0 70_000; int_range 65_537 70_000 ]))
  in
  let gen =
    gen_frame (gen_response_of (QCheck2.Gen.oneof [ gen_str; big ]))
  in
  QCheck2.Test.make ~name:"write_frame = two-step encoding" ~count:200
    ~print:(fun f -> string_of_int (Wire.response_size f.Wire.msg) ^ " bytes")
    gen
    (fun f -> written_frame (Wire.encode_response f) = two_step_response_frame f)

let prop_truncation_rejected =
  QCheck2.Test.make ~name:"every strict prefix is rejected" ~count:200
    (gen_frame gen_request) (fun f ->
      let s = Wire.encode_request f in
      let ok = ref true in
      for cut = 0 to String.length s - 1 do
        match Wire.decode_request (String.sub s 0 cut) with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      (* trailing garbage is rejected too *)
      (match Wire.decode_request (s ^ "\x00") with
      | Ok _ -> ok := false
      | Error _ -> ());
      !ok)

(* The loop's splitter against the blocking reader: a stream of frames,
   cut into random chunks and split with [Wire.next_frame] as the chunks
   arrive, yields exactly the payloads [read_frame] returns; an
   over-limit prefix is the same error on both; a truncated tail, an
   error at [read_frame]'s EOF, stays pending in the splitter. *)
let prop_splitter_equals_read_frame =
  let open QCheck2.Gen in
  let payload =
    string_size ~gen:char (oneof [ int_range 0 40; int_range 0 3_000 ])
  in
  let gen =
    triple (list_size (int_range 0 12) payload)
      (oneof
         [
           return `None;
           map (fun n -> `Over n) (int_range 1 1_000);
           map2 (fun p k -> `Cut (p, k)) payload (int_range 1 1_000);
         ])
      (list_size (int_range 1 30) (int_range 1 700))
  in
  QCheck2.Test.make ~name:"chunked splitter = read_frame" ~count:300 gen
    (fun (payloads, tail, cuts) ->
      let frame p = Bytes.to_string (Wire.frame p) in
      let tail =
        match tail with
        | `None -> ""
        | `Over n ->
          let b = Bytes.create 6 in
          Bytes.set_int32_be b 0 (Int32.of_int (Wire.max_frame_bytes + n));
          Bytes.to_string b
        | `Cut (p, k) ->
          let f = frame p in
          String.sub f 0 (k mod String.length f)
      in
      let stream = String.concat "" (List.map frame payloads) ^ tail in
      (* the blocking reader, over a file holding the stream *)
      let file = Filename.temp_file "wire" ".stream" in
      let expected, ending =
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Out_channel.with_open_bin file (fun oc ->
                Out_channel.output_string oc stream);
            let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                let rec go acc =
                  match Wire.read_frame fd with
                  | Ok (Some p) -> go (p :: acc)
                  | Ok None -> (List.rev acc, None)
                  | Error e -> (List.rev acc, Some e)
                in
                go []))
      in
      (* the splitter, fed chunk by chunk *)
      let pending = Buffer.create 16 and got = ref [] and error = ref None in
      let rec feed pos = function
        | _ when pos >= String.length stream || !error <> None -> ()
        | [] -> feed pos [ String.length stream ]
        | cut :: cuts ->
          let n = Stdlib.min cut (String.length stream - pos) in
          Buffer.add_substring pending stream pos n;
          let b = Buffer.to_bytes pending in
          let rec split at len =
            match Wire.next_frame b ~pos:at ~len with
            | Ok (Some (p, used)) ->
              got := p :: !got;
              split (at + used) (len - used)
            | Ok None ->
              Buffer.clear pending;
              Buffer.add_subbytes pending b at len
            | Error e -> error := Some e
          in
          split 0 (Bytes.length b);
          feed (pos + n) cuts
      in
      feed 0 cuts;
      List.rev !got = expected
      &&
      match ending, !error with
      | None, None -> Buffer.length pending = 0
      | Some e, Some e' -> e = e'
      | Some _, None -> Buffer.length pending = String.length tail
      | None, Some _ -> false)

let test_codec_rejects () =
  let f =
    { Wire.version = Wire.protocol_version; request_id = 1; session_id = 0;
      msg = Wire.Ping }
  in
  let s = Bytes.of_string (Wire.encode_request f) in
  Bytes.set s 0 '\x63';  (* bogus version byte *)
  Alcotest.(check bool) "unknown version" true
    (Result.is_error (Wire.decode_request (Bytes.to_string s)));
  let s = Bytes.of_string (Wire.encode_request f) in
  Bytes.set s 9 '\xee';  (* bogus opcode byte *)
  Alcotest.(check bool) "unknown opcode" true
    (Result.is_error (Wire.decode_request (Bytes.to_string s)))

(* --- the session-handle layer (satellite: no shared mutable interface
   state between connections) ---------------------------------------------- *)

let open_h t lang =
  match Mlds.System.open_handle t lang ~db:"university" with
  | Ok h -> h
  | Error msg -> Alcotest.failf "open_handle: %s" msg

let submit_h h src =
  match Mlds.System.submit_handle h src with
  | Ok out -> out
  | Error e -> Alcotest.failf "submit: %s" (Mlds.System.handle_error_to_string e)

let test_handles_isolated_currency () =
  let t = university () in
  let h1 = open_h t Mlds.System.L_codasyl in
  let h2 = open_h t Mlds.System.L_codasyl in
  ignore
    (submit_h h1
       "MOVE 'Advanced Database' TO title IN course\n\
        FIND ANY course USING title IN course");
  ignore
    (submit_h h2
       "MOVE 'Compilers' TO title IN course\n\
        FIND ANY course USING title IN course");
  (* each handle's currency survived the other's navigation *)
  Alcotest.(check bool) "h1 currency intact" true
    (contains (submit_h h1 "GET course") "Advanced Database");
  Alcotest.(check bool) "h2 currency intact" true
    (contains (submit_h h2 "GET course") "Compilers")

let test_handle_txn_fence () =
  let t = university () in
  let h1 = open_h t Mlds.System.L_abdl in
  let h2 = open_h t Mlds.System.L_abdl in
  Alcotest.(check bool) "no owner yet" true
    (Mlds.System.txn_owner t ~db:"university" = None);
  (match Mlds.System.begin_txn h1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "begin: %s" (Mlds.System.handle_error_to_string e));
  Alcotest.(check bool) "h1 owns" true (Mlds.System.in_txn h1);
  (* a foreign handle is fenced off with the owner's id *)
  (match Mlds.System.submit_handle h2 "RETRIEVE ((FILE = employee)) (AVG(salary))" with
  | Error (Mlds.System.H_busy owner) ->
    Alcotest.(check int) "busy names the owner" (Mlds.System.handle_id h1) owner
  | Ok _ -> Alcotest.fail "foreign submit ran inside h1's transaction"
  | Error e -> Alcotest.failf "wanted H_busy, got %s"
                 (Mlds.System.handle_error_to_string e));
  Alcotest.(check bool) "foreign begin fenced" true
    (match Mlds.System.begin_txn h2 with Error (Mlds.System.H_busy _) -> true | _ -> false);
  Alcotest.(check bool) "double begin refused" true
    (match Mlds.System.begin_txn h1 with Error Mlds.System.H_txn_open -> true | _ -> false);
  (match Mlds.System.commit_txn h1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit: %s" (Mlds.System.handle_error_to_string e));
  (* the fence lifts at commit *)
  ignore (submit_h h2 "RETRIEVE ((FILE = employee)) (AVG(salary))");
  Alcotest.(check bool) "commit without txn" true
    (match Mlds.System.commit_txn h1 with Error Mlds.System.H_no_txn -> true | _ -> false)

let test_close_handle_aborts () =
  let t = university () in
  let h1 = open_h t Mlds.System.L_abdl in
  (match Mlds.System.begin_txn h1 with Ok () -> () | Error _ -> assert false);
  ignore (submit_h h1 "INSERT (<FILE, probe>, <seq, 1>)");
  Alcotest.(check bool) "visible inside the txn" true
    (contains (submit_h h1 "RETRIEVE ((FILE = probe)) (COUNT(seq))") "1");
  Mlds.System.close_handle h1;
  Alcotest.(check bool) "closed handle fenced" true
    (match Mlds.System.submit_handle h1 "RETRIEVE ((FILE = probe)) (COUNT(seq))" with
    | Error Mlds.System.H_closed -> true
    | _ -> false);
  (* the close aborted the transaction: the insert is gone *)
  let h2 = open_h t Mlds.System.L_abdl in
  Alcotest.(check bool) "insert rolled back" true
    (contains (submit_h h2 "RETRIEVE ((FILE = probe)) (COUNT(seq))") "0")

(* --- real-socket integration --------------------------------------------- *)

let with_server ?(config = Server.Core.default_config) ?on_drain ?sys f =
  let t = match sys with Some t -> t | None -> university () in
  match Server.Core.create ~config:{ config with port = 0 } ?on_drain t with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server ->
    Fun.protect
      ~finally:(fun () -> Server.Core.shutdown server)
      (fun () -> f server (Server.Core.port server))

let client port =
  match Client.connect ~port () with
  | Ok c -> c
  | Error msg -> Alcotest.failf "connect: %s" msg

let logged_in ?(language = "abdl") port =
  let c = client port in
  (match Client.login c ~language ~db:"university" () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "login: %s" (Client.error_to_string e));
  c

let csubmit c src =
  match Client.submit c src with
  | Ok out -> out
  | Error e -> Alcotest.failf "submit %s: %s" src (Client.error_to_string e)

let rec wait_for ?(tries = 500) what pred =
  if pred () then ()
  else if tries = 0 then Alcotest.failf "timed out waiting for %s" what
  else begin
    Thread.delay 0.01;
    wait_for ~tries:(tries - 1) what pred
  end

let test_socket_basics () =
  with_server (fun server port ->
      let c = logged_in port in
      Alcotest.(check int) "one session" 1 (Server.Core.session_count server);
      Alcotest.(check bool) "aggregate over the wire" true
        (contains (csubmit c "RETRIEVE ((FILE = employee)) (AVG(salary))") "AVG");
      (match Client.submit c "RETRIEVE ((" with
      | Error (`Refused (Wire.Parse_error, _)) -> ()
      | _ -> Alcotest.fail "parse failure not typed Parse_error");
      (match Client.logout c with
      | Ok () -> ()
      | Error e -> Alcotest.failf "logout: %s" (Client.error_to_string e));
      wait_for "session closed" (fun () -> Server.Core.session_count server = 0);
      Client.close c)

(* An integer literal past the int range comes back over the wire as a
   typed Parse_error, not through the executor's catch-all: the
   [server.internal_errors] counter, which the Stats snapshot carries,
   stays where it was. *)
let test_overflow_literal_is_parse_error () =
  let internal () =
    Obs.Metrics.counter_value (Obs.Metrics.counter "server.internal_errors")
  in
  let before = internal () in
  with_server (fun _server port ->
      let c = logged_in port in
      (match
         Client.submit c
           "RETRIEVE ((FILE = employee) AND (salary = 99999999999999999999)) (name)"
       with
      | Error (`Refused (Wire.Parse_error, msg)) ->
        Alcotest.(check bool) msg true (contains msg "integer literal out of range")
      | Ok out -> Alcotest.failf "accepted: %s" out
      | Error e -> Alcotest.failf "not a Parse_error: %s" (Client.error_to_string e));
      let stats =
        match Client.stats c with
        | Ok out -> out
        | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e)
      in
      Alcotest.(check bool) "Stats carries server.internal_errors" true
        (contains stats "\"server.internal_errors\"");
      Client.close c);
  Alcotest.(check int) "no internal error" before (internal ())

let test_socket_session_isolation () =
  with_server (fun _server port ->
      let c1 = logged_in ~language:"codasyl" port in
      let c2 = logged_in ~language:"codasyl" port in
      ignore
        (csubmit c1
           "MOVE 'Advanced Database' TO title IN course\n\
            FIND ANY course USING title IN course");
      ignore
        (csubmit c2
           "MOVE 'Compilers' TO title IN course\n\
            FIND ANY course USING title IN course");
      Alcotest.(check bool) "session 1 currency" true
        (contains (csubmit c1 "GET course") "Advanced Database");
      Alcotest.(check bool) "session 2 currency" true
        (contains (csubmit c2 "GET course") "Compilers");
      Client.close c1;
      Client.close c2)

let test_socket_explain () =
  with_server (fun _server port ->
      let c = logged_in port in
      (* run the retrieval (its first run builds the salary index), then
         ask the server for the plan: the reply must be a rendered plan,
         and asking must not have executed the retrieval *)
      for _ = 1 to 3 do
        ignore (csubmit c "RETRIEVE ((FILE = employee) AND (salary > 60000)) (name)")
      done;
      (match Client.explain c "RETRIEVE ((FILE = employee) AND (salary > 60000)) (name)" with
      | Ok out ->
        Alcotest.(check bool) "explain renders a plan" true
          (contains out "plan: 1 disjunct");
        Alcotest.(check bool) "selective range probe is indexed" true
          (contains out "index");
      | Error e -> Alcotest.failf "explain: %s" (Client.error_to_string e));
      (match Client.explain c "RETRIEVE ((" with
      | Error (`Refused (Wire.Parse_error, _)) -> ()
      | _ -> Alcotest.fail "explain parse failure not typed Parse_error");
      Client.close c);
  (* the session gate applies to Explain like any other statement *)
  with_server (fun _server port ->
      let c = client port in
      (match Client.explain c "RETRIEVE ((FILE = employee)) (name)" with
      | Error (`Refused (Wire.Bad_session, _)) -> ()
      | _ -> Alcotest.fail "unauthenticated explain not refused");
      Client.close c)

let test_connect_by_hostname () =
  with_server (fun _server port ->
      match Client.connect ~host:"localhost" ~port () with
      | Error msg -> Alcotest.failf "connect localhost: %s" msg
      | Ok c ->
        (match Client.ping c with
        | Ok () -> ()
        | Error e -> Alcotest.failf "ping: %s" (Client.error_to_string e));
        Client.close c)

(* Raw pipelined frames: the blocking [Client] waits for each response, so
   forcing queue overflow needs requests sent without reading replies. *)
let raw_send fd ~request_id ~session_id msg =
  Wire.write_frame fd
    (Wire.encode_request
       { Wire.version = Wire.protocol_version; request_id; session_id; msg })

let raw_recv fd =
  match Wire.read_frame fd with
  | Ok (Some payload) -> (
    match Wire.decode_response payload with
    | Ok f -> f
    | Error msg -> Alcotest.failf "decode response: %s" msg)
  | Ok None -> Alcotest.fail "unexpected EOF"
  | Error msg -> Alcotest.failf "read frame: %s" msg

(* Sessions are connection-scoped capabilities: the ids are small
   sequential integers, so a second connection presenting a stolen id
   must be refused with Bad_session — it must not be able to run
   statements under the victim's session, abort or commit its
   transaction, or log it out. *)
let test_socket_session_hijack () =
  with_server (fun server port ->
      let victim = logged_in port in
      let sid =
        match Client.session_id victim with
        | Some id -> id
        | None -> Alcotest.fail "victim has no session id"
      in
      (match Client.begin_txn victim with
      | Ok () -> ()
      | Error e -> Alcotest.failf "begin: %s" (Client.error_to_string e));
      ignore (csubmit victim "INSERT (<FILE, hijack_probe>, <seq, 1>)");
      (* the attacker is a plain second connection that never logged in,
         firing raw frames that name the victim's session id *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let expect_bad_session what rid msg =
            raw_send fd ~request_id:rid ~session_id:sid msg;
            let r = raw_recv fd in
            Alcotest.(check int) (what ^ " answered") rid r.Wire.request_id;
            match r.Wire.msg with
            | Wire.Err (Wire.Bad_session, _) -> ()
            | Wire.Err (k, m) ->
              Alcotest.failf "%s: wanted Bad_session, got %s: %s" what
                (Wire.err_kind_name k) m
            | _ -> Alcotest.failf "%s with a stolen session id succeeded" what
          in
          expect_bad_session "spoofed submit" 1
            (Wire.Submit "RETRIEVE ((FILE = hijack_probe)) (COUNT(seq))");
          expect_bad_session "spoofed abort" 2 Wire.Abort_txn;
          expect_bad_session "spoofed commit" 3 Wire.Commit_txn;
          expect_bad_session "spoofed logout" 4 Wire.Logout);
      (* the victim is untouched: session alive, transaction still open,
         uncommitted state intact *)
      Alcotest.(check int) "victim session survives" 1
        (Server.Core.session_count server);
      Alcotest.(check bool) "victim txn state intact" true
        (contains
           (csubmit victim "RETRIEVE ((FILE = hijack_probe)) (COUNT(seq))")
           "1");
      (match Client.commit_txn victim with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "victim commit: %s" (Client.error_to_string e));
      Client.close victim)

(* An executor hook that parks the executor while [hold] is set:
   [entered] counts the parked jobs, [release] lets them go. *)
let executor_gate () =
  let hold = Atomic.make false and entered = Atomic.make 0 in
  let m = Mutex.create () and cv = Condition.create () in
  let hook () =
    if Atomic.get hold then begin
      Atomic.incr entered;
      Mutex.lock m;
      while Atomic.get hold do
        Condition.wait cv m
      done;
      Mutex.unlock m
    end
  in
  let release () =
    Atomic.set hold false;
    Mutex.lock m;
    Condition.broadcast cv;
    Mutex.unlock m
  in
  hold, entered, hook, release

let test_overload_rejection () =
  (* Hold the executor on a gate, fill the capacity-1 queue, and the next
     request must get the typed Overloaded — immediately, from the reader
     thread, never a stalled socket. *)
  let hold, entered, hook, release = executor_gate () in
  let config =
    { Server.Core.default_config with
      queue_capacity = 1;
      reap_every_s = 3600.;
      executor_hook = Some hook }
  in
  with_server ~config (fun _server port ->
      Fun.protect ~finally:release (fun () ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              raw_send fd ~request_id:1 ~session_id:0
                (Wire.Login
                   { user = "ov"; language = "abdl"; db = "university" });
              let sid =
                match (raw_recv fd).Wire.msg with
                | Wire.Logged_in id -> id
                | r -> Alcotest.failf "login got %s"
                         (match r with Wire.Err (_, m) -> m | _ -> "?")
              in
              Atomic.set hold true;
              let probe = Wire.Submit "RETRIEVE ((FILE = employee)) (AVG(salary))" in
              (* #2 is popped and parked in the hook... *)
              raw_send fd ~request_id:2 ~session_id:sid probe;
              wait_for "executor parked" (fun () -> Atomic.get entered > 0);
              (* ...#3 fills the queue, so #4 must bounce *)
              raw_send fd ~request_id:3 ~session_id:sid probe;
              raw_send fd ~request_id:4 ~session_id:sid probe;
              let r4 = raw_recv fd in
              Alcotest.(check int) "rejection answers #4" 4 r4.Wire.request_id;
              Alcotest.(check bool) "typed Overloaded" true
                (r4.Wire.msg = Wire.Overloaded);
              (* release the gate: the queued work still completes in order *)
              release ();
              let r2 = raw_recv fd in
              let r3 = raw_recv fd in
              Alcotest.(check int) "#2 served" 2 r2.Wire.request_id;
              Alcotest.(check int) "#3 served" 3 r3.Wire.request_id;
              Alcotest.(check bool) "#2 is output" true
                (match r2.Wire.msg with Wire.Output _ -> true | _ -> false);
              Alcotest.(check bool) "#3 is output" true
                (match r3.Wire.msg with Wire.Output _ -> true | _ -> false))))

let test_disconnect_aborts_txn () =
  with_server (fun server port ->
      let c1 = logged_in port in
      (match Client.begin_txn c1 with
      | Ok () -> ()
      | Error e -> Alcotest.failf "begin: %s" (Client.error_to_string e));
      ignore (csubmit c1 "INSERT (<FILE, txn_probe>, <seq, 7>)");
      Alcotest.(check bool) "visible to the owner" true
        (contains (csubmit c1 "RETRIEVE ((FILE = txn_probe)) (COUNT(seq))") "1");
      (* a foreign session is fenced off while the transaction is open *)
      let c2 = logged_in port in
      (match Client.submit c2 "RETRIEVE ((FILE = txn_probe)) (COUNT(seq))" with
      | Error (`Refused (Wire.Txn_busy, _)) -> ()
      | Ok _ -> Alcotest.fail "foreign read ran inside c1's transaction"
      | Error e -> Alcotest.failf "wanted Txn_busy, got %s"
                     (Client.error_to_string e));
      (* the client crashes mid-transaction *)
      Client.abandon c1;
      wait_for "crashed session reaped" (fun () ->
          Server.Core.session_count server = 1);
      (* the disconnect aborted the transaction: fence lifted, insert gone *)
      Alcotest.(check bool) "insert rolled back" true
        (contains (csubmit c2 "RETRIEVE ((FILE = txn_probe)) (COUNT(seq))") "0");
      Client.close c2)

let test_concurrent_clients () =
  (* K clients × M inserts with distinct payloads: the executor serializes
     them, so the final state is exactly the union — no lost or duplicated
     effects, every response well-formed. *)
  let clients = 4 and per_client = 10 in
  with_server (fun _server port ->
      let errors = Atomic.make 0 in
      let worker k () =
        let c = logged_in port in
        for i = 0 to per_client - 1 do
          let src =
            Printf.sprintf "INSERT (<FILE, det>, <seq, %d>)"
              ((k * per_client) + i)
          in
          match Client.submit c src with
          | Ok _ -> ()
          | Error _ -> Atomic.incr errors
        done;
        Client.close c
      in
      let threads = List.init clients (fun k -> Thread.create (worker k) ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "zero failed requests" 0 (Atomic.get errors);
      let c = logged_in port in
      Alcotest.(check bool) "all inserts landed exactly once" true
        (contains
           (csubmit c "RETRIEVE ((FILE = det)) (COUNT(seq))")
           (string_of_int (clients * per_client)));
      Client.close c)

let test_graceful_shutdown_checkpoint () =
  let wal_file = Filename.temp_file "mlds_server_test" ".wal" in
  let snap = wal_file ^ ".snapshot" in
  let cleanup () = List.iter (fun f -> try Sys.remove f with _ -> ()) [ wal_file; snap ] in
  Fun.protect ~finally:cleanup (fun () ->
      let t = university () in
      (match Mlds.System.attach_wal t ~db:"university" ~file:wal_file with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "attach_wal: %s" msg);
      let on_drain () =
        match Mlds.Persist.checkpoint t ~db:"university" ~file:snap with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "checkpoint: %s" msg
      in
      with_server ~sys:t ~on_drain (fun server port ->
          let c = logged_in port in
          for i = 1 to 3 do
            ignore (csubmit c (Printf.sprintf "INSERT (<FILE, walpt>, <seq, %d>)" i))
          done;
          Client.close c;
          Server.Core.shutdown server;
          Alcotest.(check bool) "stopped" false (Server.Core.running server));
      (* a fresh system recovers everything from the checkpoint alone *)
      let sys2 = Mlds.System.create () in
      (match Mlds.Persist.load sys2 ~file:snap with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "load checkpoint: %s" msg);
      match Mlds.System.open_handle sys2 Mlds.System.L_abdl ~db:"university" with
      | Error msg -> Alcotest.failf "open recovered: %s" msg
      | Ok h ->
        (match Mlds.System.submit_handle h "RETRIEVE ((FILE = walpt)) (COUNT(seq))" with
        | Ok out ->
          Alcotest.(check bool) "all three inserts survived" true (contains out "3")
        | Error e ->
          Alcotest.failf "retrieve recovered: %s" (Mlds.System.handle_error_to_string e)))

(* A read-only server (a warm standby) answers every statement that
   mutates nothing — a SELECT on a native relational database included,
   although it runs on the database's shared SQL engine — and still
   refuses the INSERT. *)
let test_read_only_native_sql () =
  let t = Mlds.System.create () in
  (match Mlds.System.define_relational t ~name:"payroll" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "define payroll: %s" msg);
  (match Mlds.System.open_handle t Mlds.System.L_sql ~db:"payroll" with
  | Error msg -> Alcotest.failf "open sql: %s" msg
  | Ok h ->
    ignore
      (submit_h h
         "CREATE TABLE emp (name CHAR(10), salary INT); INSERT INTO emp \
          VALUES ('a', 10)");
    Mlds.System.close_handle h);
  with_server ~sys:t (fun server port ->
      Server.Core.set_read_only server true;
      let c = client port in
      (match Client.login c ~language:"sql" ~db:"payroll" () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "login: %s" (Client.error_to_string e));
      (match Client.submit c "SELECT SUM(salary) FROM emp" with
      | Ok out ->
        Alcotest.(check bool) "select answered" true (contains out "10")
      | Error e ->
        Alcotest.failf "read-only server refused a SELECT: %s"
          (Client.error_to_string e));
      (match Client.submit c "INSERT INTO emp VALUES ('b', 30)" with
      | Error (`Refused (Wire.Read_only, _)) -> ()
      | Ok _ -> Alcotest.fail "read-only server ran an INSERT"
      | Error e ->
        Alcotest.failf "wanted Read_only, got %s" (Client.error_to_string e));
      Client.close c)

(* --- the batched executor ------------------------------------------------- *)

let test_classify () =
  let t = university () in
  let h = open_h t Mlds.System.L_abdl in
  let is_read src = Mlds.System.classify_handle h src = `Read in
  Alcotest.(check bool) "retrieve is a read" true
    (is_read "RETRIEVE ((FILE = employee)) (AVG(salary))");
  Alcotest.(check bool) "insert is a write" false
    (is_read "INSERT (<FILE, c>, <seq, 1>)");
  Alcotest.(check bool) "garbage is a write" false (is_read "RETRIEVE ((");
  (* classification only asks whether the statement mutates: another
     handle's open transaction is the submit's fence, not a write *)
  let owner = open_h t Mlds.System.L_abdl in
  (match Mlds.System.begin_txn owner with
  | Ok () -> ()
  | Error e -> Alcotest.failf "begin: %s" (Mlds.System.handle_error_to_string e));
  Alcotest.(check bool) "a read under a foreign txn is still a read" true
    (is_read "RETRIEVE ((FILE = employee)) (AVG(salary))");
  (match Mlds.System.commit_txn owner with
  | Ok () -> ()
  | Error e -> Alcotest.failf "commit: %s" (Mlds.System.handle_error_to_string e));
  (* SQL on a native relational database runs on the db's shared engine;
     a SELECT still mutates nothing *)
  (match Mlds.System.define_relational t ~name:"rel" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "define rel: %s" msg);
  (match Mlds.System.open_handle t Mlds.System.L_sql ~db:"rel" with
  | Ok hs ->
    Alcotest.(check bool) "native relational select is a read" true
      (Mlds.System.classify_handle hs "SELECT * FROM item" = `Read);
    Alcotest.(check bool) "native relational insert is a write" false
      (Mlds.System.classify_handle hs "INSERT INTO item VALUES (1)" = `Read)
  | Error msg -> Alcotest.failf "open sql: %s" msg);
  (* cross-model SQL over the functional db *)
  let hq = open_h t Mlds.System.L_sql in
  Alcotest.(check bool) "cross-model select is a read" true
    (Mlds.System.classify_handle hq "SELECT name FROM employee" = `Read)

(* Satellite regression: an idle session on an otherwise quiet server is
   reaped — the sweep arrives via the control lane, so it must fire even
   when no request traffic wakes the executor. *)
let test_idle_reap_quiet_server () =
  let config =
    { Server.Core.default_config with
      idle_timeout_s = 0.05;
      reap_every_s = 0.02 }
  in
  with_server ~config (fun server port ->
      let c = logged_in port in
      Alcotest.(check int) "session open" 1 (Server.Core.session_count server);
      (* no traffic at all from here on *)
      wait_for "idle session reaped on a quiet server" (fun () ->
          Server.Core.session_count server = 0);
      (match Client.submit c "RETRIEVE ((FILE = employee)) (AVG(salary))" with
      | Error (`Refused (Wire.Bad_session, _)) -> ()
      | Ok _ -> Alcotest.fail "submit on a reaped session succeeded"
      | Error e ->
        Alcotest.failf "wanted Bad_session, got %s" (Client.error_to_string e));
      Client.close c)

(* Mixed concurrent load through the real socket path with the batched
   executor: effects land exactly once, and the batch machinery actually
   engaged (batch sizes observed). *)
let test_batched_socket_mixed () =
  let h_batch = Obs.Metrics.histogram "server.batch_size" in
  let batches0 = Obs.Metrics.histogram_count h_batch in
  let clients = 4 and per_client = 10 in
  with_server (fun _server port ->
      let errors = Atomic.make 0 in
      let worker k () =
        let c = logged_in port in
        for i = 0 to per_client - 1 do
          let src =
            if i mod 2 = 0 then
              Printf.sprintf "INSERT (<FILE, mixed>, <seq, %d>)"
                ((k * per_client) + i)
            else "RETRIEVE ((FILE = employee)) (AVG(salary))"
          in
          match Client.submit c src with
          | Ok _ -> ()
          | Error _ -> Atomic.incr errors
        done;
        Client.close c
      in
      let threads = List.init clients (fun k -> Thread.create (worker k) ()) in
      List.iter Thread.join threads;
      Alcotest.(check int) "zero failed requests" 0 (Atomic.get errors);
      let c = logged_in port in
      Alcotest.(check bool) "every insert landed exactly once" true
        (contains
           (csubmit c "RETRIEVE ((FILE = mixed)) (COUNT(seq))")
           (string_of_int (clients * per_client / 2)));
      Client.close c);
  Alcotest.(check bool) "batch sizes observed" true
    (Obs.Metrics.histogram_count h_batch > batches0)

(* --- the telemetry plane over the socket ---------------------------------- *)

module J = Obs.Json

let parse_json what s =
  match J.parse s with
  | Ok json -> json
  | Error msg -> Alcotest.failf "%s is not JSON (%s): %s" what msg s

let test_stats_tail_roundtrip () =
  with_server (fun _server port ->
      (* Stats needs no session *)
      let c = client port in
      let stats =
        match Client.stats c with
        | Ok out -> parse_json "Stats" out
        | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e)
      in
      Alcotest.(check bool) "uptime present" true
        (J.num_member "uptime_s" stats <> None);
      Alcotest.(check (option int)) "no sessions yet" (Some 0)
        (J.int_member "sessions" stats);
      Alcotest.(check bool) "recorder enabled by default" true
        (match J.member "recorder" stats with
        | Some (J.Obj _) -> true
        | _ -> false);
      let metric_names json =
        match J.member "metrics" json with
        | Some (J.Arr items) ->
          List.filter_map (fun i -> J.str_member "name" i) items
        | _ -> []
      in
      Alcotest.(check bool) "metrics snapshot rides along" true
        (List.mem "server.requests_total" (metric_names stats));
      (* now generate traffic and drain it through Tail *)
      let c2 = logged_in port in
      for _ = 1 to 5 do
        ignore (csubmit c2 "RETRIEVE ((FILE = employee)) (AVG(salary))")
      done;
      let tail cursor slow_cursor =
        match Client.tail c ~cursor ~slow_cursor () with
        | Ok out -> parse_json "Tail" out
        | Error e -> Alcotest.failf "tail: %s" (Client.error_to_string e)
      in
      let t1 = tail 0 0 in
      let seqs json =
        match J.member "events" json with
        | Some (J.Arr items) ->
          List.filter_map (fun i -> J.int_member "seq" i) items
        | _ -> []
      in
      let s1 = seqs t1 in
      Alcotest.(check bool) "events captured" true (List.length s1 >= 5);
      Alcotest.(check bool) "session list shows the login" true
        (match Client.stats c with
        | Ok out ->
          (match J.member "session_list" (parse_json "Stats" out) with
          | Some (J.Arr (_ :: _)) -> true
          | _ -> false)
        | Error _ -> false);
      let next = Option.get (J.int_member "cursor" t1) in
      Alcotest.(check bool) "cursor advanced" true (next > 0);
      (* a second poll from the returned cursor never repeats a seq *)
      ignore (csubmit c2 "RETRIEVE ((FILE = employee)) (COUNT(name))");
      let t2 = tail next (Option.get (J.int_member "slow_cursor" t1)) in
      let s2 = seqs t2 in
      List.iter
        (fun s ->
          if List.mem s s1 then Alcotest.failf "seq %d delivered twice" s)
        s2;
      Alcotest.(check bool) "new traffic visible" true (s2 <> []);
      Client.close c2;
      Client.close c)

let test_tail_with_recorder_disabled () =
  let config = { Server.Core.default_config with recorder_capacity = 0 } in
  with_server ~config (fun _server port ->
      let c = client port in
      (* Stats still answers, with a null recorder *)
      (match Client.stats c with
      | Ok out ->
        Alcotest.(check bool) "recorder is null" true
          (J.member "recorder" (parse_json "Stats" out) = Some J.Null)
      | Error e -> Alcotest.failf "stats: %s" (Client.error_to_string e));
      (* Tail is a typed refusal, not a hang or a protocol error *)
      (match Client.tail c ~cursor:0 ~slow_cursor:0 () with
      | Error (`Refused (Wire.Exec_error, msg)) ->
        Alcotest.(check bool) "says why" true (contains msg "disabled")
      | Ok _ -> Alcotest.fail "tail succeeded with no recorder"
      | Error e -> Alcotest.failf "wanted Exec_error, got %s"
                     (Client.error_to_string e));
      Client.close c)

let test_forced_slow_capture () =
  (* threshold 0: every request is "slow", so the log must capture the
     statement with the planner's rendering of its access plan *)
  let config = { Server.Core.default_config with slow_threshold_s = 0. } in
  with_server ~config (fun _server port ->
      let c = logged_in port in
      (* the first retrieval builds the salary index, so the captured
         plan is an index probe *)
      for _ = 1 to 4 do
        ignore
          (csubmit c "RETRIEVE ((FILE = employee) AND (salary > 60000)) (name)")
      done;
      let json =
        match Client.tail c ~cursor:0 ~slow_cursor:0 () with
        | Ok out -> parse_json "Tail" out
        | Error e -> Alcotest.failf "tail: %s" (Client.error_to_string e)
      in
      let slow =
        match J.member "slow" json with Some (J.Arr l) -> l | _ -> []
      in
      Alcotest.(check bool) "slow entries captured" true (slow <> []);
      let captured =
        List.exists
          (fun e ->
            match J.str_member "statement" e, J.str_member "plan" e with
            | Some stmt, Some plan ->
              contains stmt "salary > 60000"
              && contains plan "plan:"
              && contains plan "index"
            | _ -> false)
          slow
      in
      Alcotest.(check bool) "statement and indexed plan in the log" true
        captured;
      List.iter
        (fun e ->
          Alcotest.(check bool) "span names the request" true
            (match J.str_member "span" e with
            | Some span -> contains span "server.request"
            | None -> false))
        slow;
      Client.close c)

(* A frame whose opcode this server does not understand must be answered
   (on request id 0, the only id an undecodable frame has) with a typed
   Bad_request — the behaviour a pre-telemetry server shows a new client. *)
let test_unknown_opcode_answered () =
  with_server (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let raw =
            Bytes.of_string
              (Wire.encode_request
                 {
                   Wire.version = Wire.protocol_version;
                   request_id = 42;
                   session_id = 0;
                   msg = Wire.Ping;
                 })
          in
          Bytes.set raw 9 '\x7f';  (* an opcode from the future *)
          Wire.write_frame fd (Bytes.to_string raw);
          let resp = raw_recv fd in
          Alcotest.(check int) "answered on request id 0" 0
            resp.Wire.request_id;
          (match resp.Wire.msg with
          | Wire.Err (Wire.Bad_request, _) -> ()
          | _ -> Alcotest.fail "unknown opcode not Bad_request");
          (* the connection survives: a well-formed request still works *)
          raw_send fd ~request_id:43 ~session_id:0 Wire.Ping;
          let pong = raw_recv fd in
          Alcotest.(check int) "next request answered" 43 pong.Wire.request_id))

(* The client side of the same handshake: a fake pre-telemetry server
   answers Stats with Bad_request on request id 0, and the client must
   surface a typed [`Refused] — not a protocol error — so callers can
   say "this server is too old". *)
let test_client_refused_by_old_server () =
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listener 1;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listener in
        (match Wire.read_frame fd with
        | Ok (Some _) ->
          (* an old server cannot decode the frame, so it cannot know
             the request id: answer on 0 *)
          Wire.write_frame fd
            (Wire.encode_response
               {
                 Wire.version = Wire.protocol_version;
                 request_id = 0;
                 session_id = 0;
                 msg = Wire.Err (Wire.Bad_request, "unknown opcode 0x0a");
               })
        | _ -> ());
        Unix.close fd)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close listener)
    (fun () ->
      match Client.connect ~port () with
      | Error msg -> Alcotest.failf "connect: %s" msg
      | Ok c ->
        (match Client.stats c with
        | Error (`Refused (Wire.Bad_request, _)) -> ()
        | Ok _ -> Alcotest.fail "stats succeeded against an old server"
        | Error e -> Alcotest.failf "wanted Refused Bad_request, got %s"
                       (Client.error_to_string e));
        Client.abandon c)

(* Regression: the queue-depth gauge must track pushes, pops and rejects —
   it used to be updated only on push, so it froze at the high-water mark
   until the next push. *)
let test_queue_depth_gauge () =
  let g = Obs.Metrics.gauge "server.queue_depth" in
  let hold, entered, hook, release = executor_gate () in
  (* capacity 4: the lone client's fairness quota is capacity/2 = 2, so
     exactly two probes can queue behind the parked executor and the
     third bounces — the gauge must read 2, then drain to 0 *)
  let config =
    { Server.Core.default_config with
      queue_capacity = 4;
      reap_every_s = 3600.;
      executor_hook = Some hook }
  in
  with_server ~config (fun _server port ->
      Fun.protect ~finally:release (fun () ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with _ -> ())
            (fun () ->
              Unix.connect fd
                (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              raw_send fd ~request_id:1 ~session_id:0
                (Wire.Login
                   { user = "qd"; language = "abdl"; db = "university" });
              let sid =
                match (raw_recv fd).Wire.msg with
                | Wire.Logged_in id -> id
                | _ -> Alcotest.fail "login failed"
              in
              Atomic.set hold true;
              let probe =
                Wire.Submit "RETRIEVE ((FILE = employee)) (AVG(salary))"
              in
              (* #2 parks in the hook; #3 and #4 fill the queue *)
              raw_send fd ~request_id:2 ~session_id:sid probe;
              wait_for "executor parked" (fun () -> Atomic.get entered > 0);
              raw_send fd ~request_id:3 ~session_id:sid probe;
              raw_send fd ~request_id:4 ~session_id:sid probe;
              wait_for "gauge sees the backlog" (fun () ->
                  Obs.Metrics.gauge_value g >= 2.);
              (* #5 bounces — and the reject path must re-note the depth *)
              raw_send fd ~request_id:5 ~session_id:sid probe;
              let r5 = raw_recv fd in
              Alcotest.(check bool) "typed Overloaded" true
                (r5.Wire.msg = Wire.Overloaded);
              Alcotest.(check bool) "gauge still the queue depth" true
                (Obs.Metrics.gauge_value g = 2.);
              (* drain: the gauge must fall back to 0 with the queue *)
              release ();
              ignore (raw_recv fd);
              ignore (raw_recv fd);
              ignore (raw_recv fd);
              wait_for "gauge drains to zero" (fun () ->
                  Obs.Metrics.gauge_value g = 0.))))

(* --- online checkpointing and admission control --------------------------- *)

let c_ckpt_total = Obs.Metrics.counter "server.checkpoint.total"

(* The queue's fair lanes, deterministically: one greedy lane can only
   fill its quota (half the capacity when it is alone), a newcomer still
   gets in beside a full greedy lane, and the consumer drains lanes
   round-robin — the newcomer's first item is one rotation away, not
   behind the whole greedy backlog. *)
let test_fair_lane_queue () =
  let q = Server.Bounded_queue.create ~capacity:8 in
  let pushed = ref 0 in
  for i = 1 to 8 do
    if Server.Bounded_queue.try_push q ~key:1 (1000 + i) then incr pushed
  done;
  Alcotest.(check int) "greedy lane capped at its quota" 4 !pushed;
  Alcotest.(check bool) "a newcomer still gets in" true
    (Server.Bounded_queue.try_push q ~key:2 2001);
  let order = Server.Bounded_queue.pop_batch q ~max:8 in
  Alcotest.(check (list int)) "round-robin across lanes, FIFO within"
    [ 1001; 2001; 1002; 1003; 1004 ] order;
  Alcotest.(check int) "drained" 0 (Server.Bounded_queue.depth q)

(* Online checkpointing over the wire: the size trigger snapshots and
   truncates the WAL behind the executor's write barrier while the
   server keeps answering; \checkpoint forces one and its reply waits
   for durability; recovery from snapshot + WAL tail restores every
   insert exactly once. *)
let test_online_checkpoint () =
  let snap = Filename.temp_file "mlds_online_ckpt" ".mlds" in
  let wal_file = snap ^ ".wal" in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with _ -> ()) [ snap; wal_file ]
  in
  Fun.protect ~finally:cleanup (fun () ->
      let t = university () in
      (match Mlds.System.attach_wal t ~db:"university" ~file:wal_file with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "attach_wal: %s" msg);
      let wal = Option.get (Mlds.System.wal_of t ~db:"university") in
      let ck0 = Obs.Metrics.counter_value c_ckpt_total in
      let config =
        { Server.Core.default_config with
          checkpoint_path = Some snap;
          checkpoint_every_bytes = 2048;
              reap_every_s = 3600. }
      in
      with_server ~sys:t ~config (fun server port ->
          let c = logged_in port in
          for i = 1 to 60 do
            ignore
              (csubmit c (Printf.sprintf "INSERT (<FILE, ckpt>, <seq, %d>)" i))
          done;
          wait_for "auto checkpoint" (fun () ->
              Obs.Metrics.counter_value c_ckpt_total > ck0);
          Alcotest.(check bool) "snapshot written" true (Sys.file_exists snap);
          (* \checkpoint forces one; the reply waits for durability *)
          ignore (csubmit c "INSERT (<FILE, ckpt>, <seq, 61>)");
          (match Client.checkpoint c with
          | Ok out ->
            Alcotest.(check bool) "reports completion" true
              (contains out "checkpoint complete")
          | Error e ->
            Alcotest.failf "checkpoint: %s" (Client.error_to_string e));
          (* 61 inserts wrote several KB of frames; after the forced
             checkpoint the WAL is back under the trigger *)
          Alcotest.(check bool) "WAL truncated below the trigger" true
            (Mlds.Wal.file_bytes wal < 2048);
          (* post-checkpoint writes land in the surviving WAL tail *)
          for i = 62 to 64 do
            ignore
              (csubmit c (Printf.sprintf "INSERT (<FILE, ckpt>, <seq, %d>)" i))
          done;
          Client.close c;
          Server.Core.shutdown server;
          Alcotest.(check bool) "stopped" false (Server.Core.running server));
      (* a fresh system recovers snapshot + tail *)
      let sys2 = Mlds.System.create () in
      (match Mlds.Persist.load_report sys2 ~file:snap with
      | Ok { Mlds.Persist.recovery = Some r; _ } ->
        Alcotest.(check bool) "tail frames replayed" true
          (r.Mlds.Persist.applied >= 3)
      | Ok { Mlds.Persist.recovery = None; _ } ->
        Alcotest.fail "no WAL replay during load"
      | Error msg -> Alcotest.failf "load_report: %s" msg);
      match Mlds.System.open_handle sys2 Mlds.System.L_abdl ~db:"university" with
      | Error msg -> Alcotest.failf "open recovered: %s" msg
      | Ok h ->
        (match
           Mlds.System.submit_handle h "RETRIEVE ((FILE = ckpt)) (COUNT(seq))"
         with
        | Ok out ->
          Alcotest.(check bool) "64 inserts, each exactly once" true
            (contains out "64")
        | Error e ->
          Alcotest.failf "retrieve recovered: %s" (Mlds.System.handle_error_to_string e)))

(* A whole checkpoint of a database larger than any one batch's work,
   taken while one client pipelines writes: the executor takes it
   between two batches and answers it once durable. Every write acked
   before the reply is in the snapshot, every one acked after it is a
   frame of the new log, and snapshot + log recover the acked state. *)
let test_whole_checkpoint_pipelined () =
  let snap = Filename.temp_file "mlds_whole_ckpt" ".mlds" in
  let wal_file = snap ^ ".wal" in
  let cleanup () = List.iter (fun f -> try Sys.remove f with _ -> ()) [ snap; wal_file ] in
  Fun.protect ~finally:cleanup @@ fun () ->
  let t = university () in
  let kernel = Option.get (Mlds.System.kernel_of t "university") in
  for i = 1 to 2100 do
    ignore
      (Mapping.Kernel.insert kernel
         (Abdm.Record.make
            [ Abdm.Keyword.file "pad"; Abdm.Keyword.make "n" (Abdm.Value.Int i) ]))
  done;
  (match Mlds.System.attach_wal t ~db:"university" ~file:wal_file with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "attach_wal: %s" msg);
  let config =
    { Server.Core.default_config with
      checkpoint_path = Some snap;
      queue_capacity = 1024;
      reap_every_s = 3600. }
  in
  let insert seq = Wire.Submit (Printf.sprintf "INSERT (<FILE, wire>, <seq, %d>)" seq) in
  let ckpt_id = 100_000 in
  (* the acked seqs, before and after the checkpoint's reply, newest first *)
  let before = ref [] and after = ref [] in
  with_server ~sys:t ~config (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      raw_send fd ~request_id:0 ~session_id:0
        (Wire.Login { user = "w"; language = "abdl"; db = "university" });
      let session_id =
        match (raw_recv fd).Wire.msg with
        | Wire.Logged_in id -> id
        | _ -> Alcotest.fail "login failed"
      in
      let replied = ref false in
      let take () =
        let f = raw_recv fd in
        match f.Wire.msg with
        | Wire.Output out when f.Wire.request_id = ckpt_id ->
          Alcotest.(check bool) "the checkpoint completes" true
            (contains out "checkpoint complete");
          replied := true
        | Wire.Output _ ->
          let acked = if !replied then after else before in
          acked := f.Wire.request_id :: !acked
        | _ -> Alcotest.failf "request %d not acked" f.Wire.request_id
      in
      (* the log holds frames before the pipeline starts *)
      for seq = 1 to 20 do
        raw_send fd ~request_id:seq ~session_id (insert seq);
        take ()
      done;
      for seq = 21 to 220 do
        raw_send fd ~request_id:seq ~session_id (insert seq)
      done;
      raw_send fd ~request_id:ckpt_id ~session_id Wire.Checkpoint;
      for seq = 221 to 270 do
        raw_send fd ~request_id:seq ~session_id (insert seq)
      done;
      for _ = 21 to 271 do
        take ()
      done);
  Alcotest.(check int) "every write acked" 270 (List.length !before + List.length !after);
  Alcotest.(check bool) "some writes acked before the reply" true (List.length !before >= 20);
  (* the snapshot and the log recover the acked state *)
  let live = Result.get_ok (Mlds.Persist.dump t ~db:"university") in
  let sys2 = Mlds.System.create () in
  (match Mlds.Persist.load_report sys2 ~file:snap with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "load_report: %s" msg);
  Alcotest.(check string) "snapshot + log = the acked state" live
    (Result.get_ok (Mlds.Persist.dump sys2 ~db:"university"));
  (* the log is the new generation's: its marker, then only the writes
     acked after the reply *)
  let r = Mlds.Wal.recover wal_file in
  Alcotest.(check bool) "the marker heads the log" true (r.Mlds.Wal.gen >= 1);
  let logged =
    List.filter_map
      (function
        | Mlds.Wal.Keyed_insert (_, record) ->
          (match Abdm.Record.value_of record "seq" with
          | Some (Abdm.Value.Int seq) -> Some seq
          | _ -> None)
        | _ -> None)
      r.Mlds.Wal.entries
  in
  Alcotest.(check (list int)) "the log holds the writes acked after the reply"
    (List.rev !after) logged

(* The fair lanes over the wire: a greedy pipelined client fills its own
   lane and gets typed [Overloaded] replies past its quota, which the
   flight recorder logs as rejects of its session, while a polite client
   on its own lane is served within one lane rotation and never loses a
   request. *)
let test_fair_lanes_over_wire () =
  let config =
    { Server.Core.default_config with
      max_batch = 4;
      reap_every_s = 3600.;
      (* every job costs ~3ms on the executor, so the greedy backlog
         (~100ms) is still queued when the polite client arrives *)
      executor_hook = Some (fun () -> Thread.delay 0.003) }
  in
  with_server ~config (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          raw_send fd ~request_id:1 ~session_id:0
            (Wire.Login
               { user = "greedy"; language = "abdl"; db = "university" });
          let sid =
            match (raw_recv fd).Wire.msg with
            | Wire.Logged_in id -> id
            | _ -> Alcotest.fail "greedy login failed"
          in
          let flood = 60 in
          let probe = Wire.Submit "RETRIEVE ((FILE = employee)) (AVG(salary))" in
          for i = 1 to flood do
            raw_send fd ~request_id:(i + 1) ~session_id:sid probe
          done;
          (* the polite client arrives while the greedy backlog drains:
             its lane is served round-robin, so every sequential request
             completes *)
          let polite = logged_in port in
          for _ = 1 to 8 do
            Alcotest.(check bool) "polite request served" true
              (contains
                 (csubmit polite "RETRIEVE ((FILE = employee)) (AVG(salary))")
                 "AVG")
          done;
          (* drain the greedy replies: outputs plus the lane quota's
             typed Overloaded *)
          let outputs = ref 0 and overloaded = ref 0 in
          for _ = 1 to flood do
            match (raw_recv fd).Wire.msg with
            | Wire.Output _ -> incr outputs
            | Wire.Overloaded -> incr overloaded
            | m ->
              Alcotest.failf "greedy got %s"
                (match m with Wire.Err (_, s) -> s | _ -> "?")
          done;
          Alcotest.(check bool) "greedy still makes progress" true
            (!outputs > 0);
          Alcotest.(check bool) "greedy is throttled" true (!overloaded > 0);
          let json =
            match Client.tail polite ~cursor:0 ~slow_cursor:0 () with
            | Ok out -> parse_json "Tail" out
            | Error e -> Alcotest.failf "tail: %s" (Client.error_to_string e)
          in
          let events =
            match J.member "events" json with Some (J.Arr l) -> l | _ -> []
          in
          Alcotest.(check bool) "the recorder holds the greedy rejects" true
            (List.exists
               (fun e ->
                 J.str_member "outcome" e = Some "rejected"
                 && J.num_member "session" e = Some (float_of_int sid))
               events);
          Client.close polite))

(* --- the pipelined executor ------------------------------------------------- *)

(* A system with the uni0..uni(n-1) family — same schema and rows each —
   each database with its own fsync'd WAL, so each gets its own flusher.
   [backends >= 1] puts every database on an MBDS with that many
   backends. *)
let multiverse ?(backends = 0) n =
  let t = Mlds.System.create ~backends () in
  let wals =
    List.map
      (fun i ->
        let db = Printf.sprintf "uni%d" i in
        (match
           Mlds.System.define_functional t ~name:db ~ddl:Daplex.University.ddl
             Daplex.University.rows
         with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "define %s: %s" db msg);
        let file = Filename.temp_file "mlds_multiverse" ".wal" in
        (match Mlds.System.attach_wal t ~db ~file with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "attach_wal %s: %s" db msg);
        file)
      (List.init n Fun.id)
  in
  t, wals

let remove_files = List.iter (fun f -> try Sys.remove f with Sys_error _ -> ())

(* The random multi-database workload for the pipelined≡serial
   property: 4 sessions spread round-robin over the databases, each op a
   read (static employees, the db-shared file, or the session-private
   file) or an insert (shared or private). *)
let multi_src ~session idx op =
  match op with
  | 0 -> "RETRIEVE ((FILE = employee)) (AVG(salary))"
  | 1 -> "RETRIEVE ((FILE = sprop)) (COUNT(seq))"
  | 2 -> Printf.sprintf "RETRIEVE ((FILE = sprop_s%d)) (COUNT(seq))" session
  | 3 -> Printf.sprintf "INSERT (<FILE, sprop>, <seq, %d>, <who, 's%d'>)" idx session
  | _ ->
    Printf.sprintf "INSERT (<FILE, sprop_s%d>, <seq, %d>)" session idx

let render (f : Wire.response Wire.frame) =
  Printf.sprintf "#%d %s" f.Wire.request_id
    (match f.Wire.msg with
    | Wire.Output o -> "ok:" ^ o
    | Wire.Err (k, m) -> "err:" ^ Wire.err_kind_name k ^ ":" ^ m
    | _ -> "other")

(* Each step is a burst: one session pipelines 1-3 requests on its raw
   connection, then reads every reply. Only one connection is active at
   a time, so the global arrival order is fixed and a correct server
   must produce byte-identical replies, in request order, whatever its
   executor does with batches and flushes. *)
let run_script ~config ~ndbs ~backends script =
  let sys, wals = multiverse ~backends ndbs in
  Fun.protect ~finally:(fun () -> remove_files wals) @@ fun () ->
  with_server ~config ~sys (fun _server port ->
      let conns =
        Array.init 4 (fun i ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            raw_send fd ~request_id:1 ~session_id:0
              (Wire.Login
                 {
                   user = Printf.sprintf "s%d" i;
                   language = "abdl";
                   db = Printf.sprintf "uni%d" (i mod ndbs);
                 });
            match (raw_recv fd).Wire.msg with
            | Wire.Logged_in sid -> (fd, sid)
            | _ -> Alcotest.failf "login s%d failed" i)
      in
      let idx = ref 1 in
      let out =
        List.concat_map
          (fun (session, ops) ->
            let fd, sid = conns.(session) in
            List.iter
              (fun op ->
                incr idx;
                raw_send fd ~request_id:!idx ~session_id:sid
                  (Wire.Submit (multi_src ~session !idx op)))
              ops;
            List.map (fun _ -> render (raw_recv fd)) ops)
          script
      in
      Array.iter (fun (fd, _) -> Unix.close fd) conns;
      out)

(* The correctness anchor of the pipelined executor: a random
   multi-database workload against the default server — batches and
   covering fsyncs handed to per-WAL flushers, on single-store kernels or
   2-backend MBDS kernels — is byte-identical, reply for reply and in
   request order, to the same workload against the serial executor
   ([batch = false]), and neither run moves [server.internal_errors]. *)
let prop_pipelined_equals_serial =
  QCheck2.Test.make
    ~name:"pipelined executor is byte-identical to the serial executor"
    ~count:8
    QCheck2.Gen.(
      triple (int_range 1 3) (oneofl [ 0; 2 ])
        (list_size (int_range 1 20)
           (pair (int_range 0 3) (list_size (int_range 1 3) (int_range 0 4)))))
    (fun (ndbs, backends, script) ->
      let internal () =
        Obs.Metrics.counter_value (Obs.Metrics.counter "server.internal_errors")
      in
      let run config =
        let before = internal () in
        let out = run_script ~config ~ndbs ~backends script in
        out, internal () - before
      in
      let serial, serial_internal =
        run { Server.Core.default_config with batch = false }
      in
      let pipelined, pipelined_internal = run Server.Core.default_config in
      if serial_internal <> 0 || pipelined_internal <> 0 then
        QCheck2.Test.fail_reportf "internal errors: serial %d, pipelined %d"
          serial_internal pipelined_internal
      else if serial <> pipelined then
        QCheck2.Test.fail_reportf
          "pipelined over %d dbs (%d backends) diverged\n\
           serial:\n  %s\npipelined:\n  %s"
          ndbs backends
          (String.concat "\n  " serial)
          (String.concat "\n  " pipelined)
      else true)

(* An injected task runs at an executor serial point and must see every
   write acknowledged before it, on every database. *)
let test_inject_sees_acked_writes () =
  let sys, wals = multiverse 2 in
  Fun.protect ~finally:(fun () -> remove_files wals) @@ fun () ->
  with_server ~sys (fun server port ->
      let login_db db =
        let c = client port in
        (match Client.login c ~language:"abdl" ~db () with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "login %s: %s" db (Client.error_to_string e));
        c
      in
      let c0 = login_db "uni0" and c1 = login_db "uni1" in
      for i = 1 to 5 do
        ignore (csubmit c0 (Printf.sprintf "INSERT (<FILE, esc>, <seq, %d>)" i));
        ignore (csubmit c1 (Printf.sprintf "INSERT (<FILE, esc>, <seq, %d>)" i))
      done;
      (* every insert above was acknowledged, so it is executed and
         durable; the injected closure runs strictly later *)
      let seen = Atomic.make (-1) in
      Server.Core.inject server (fun () ->
          let full db =
            match Mlds.System.open_handle sys Mlds.System.L_abdl ~db with
            | Error _ -> false
            | Ok h ->
              let r =
                match
                  Mlds.System.submit_handle h
                    "RETRIEVE ((FILE = esc)) (COUNT(seq))"
                with
                | Ok out -> contains out "5"
                | Error _ -> false
              in
              Mlds.System.close_handle h;
              r
          in
          Atomic.set seen (if full "uni0" && full "uni1" then 1 else 0));
      wait_for "injected observer ran" (fun () -> Atomic.get seen >= 0);
      Alcotest.(check int) "observer saw every acked write" 1
        (Atomic.get seen);
      Client.close c0;
      Client.close c1)

(* --- fsync errors ------------------------------------------------------------ *)

(* A university server with an fsync'd WAL written through a recording
   file system, for the EIO tests. *)
let with_wal_server ?config f =
  let fake = Fake_fs.create () in
  let t = university ~fs:(Fake_fs.fs fake) () in
  let file = Filename.temp_file "mlds_eio" ".wal" in
  Fun.protect ~finally:(fun () -> remove_files [ file ]) @@ fun () ->
  let wal =
    match Mlds.System.attach_wal t ~db:"university" ~file with
    | Ok wal -> wal
    | Error msg -> Alcotest.failf "attach_wal: %s" msg
  in
  with_server ?config ~sys:t (fun server port -> f server port wal fake)

(* A disk error at the covering fsync: the writer gets a typed error
   (its commit may not be durable), the flusher survives it, and later
   requests — a retried write, a read — are answered normally. *)
let test_fsync_eio_writer () =
  with_wal_server (fun _server port wal fake ->
      let c = logged_in port in
      Fake_fs.arm fake ~kind:Fake_fs.Fsync 1 Fake_fs.Eio;
      (match Client.submit c "INSERT (<FILE, eio>, <seq, 1>)" with
      | Error (`Refused (Wire.Exec_error, why)) ->
        Alcotest.(check bool) "names the failed fsync" true
          (contains why "fsync")
      | Ok out -> Alcotest.failf "write acked despite EIO: %s" out
      | Error e -> Alcotest.failf "untyped failure: %s" (Client.error_to_string e));
      let synced = Mlds.Wal.synced_position wal in
      ignore (csubmit c "INSERT (<FILE, eio>, <seq, 2>)");
      Alcotest.(check bool) "the flusher fsynced again" true
        (Mlds.Wal.synced_position wal > synced);
      Alcotest.(check bool) "reads still answered" true
        (contains (csubmit c "RETRIEVE ((FILE = eio)) (COUNT(seq))") "COUNT");
      Client.close c)

(* The exposure bug the release rule fixes: reader B's read is admitted
   after writer A's insert executed, so it observes A's row. When the
   fsync covering that row fails, B must get an error too — never an
   Output showing a write that was not durable. *)
let test_fsync_eio_observer () =
  let hold, entered, hook, release = executor_gate () in
  let config =
    { Server.Core.default_config with
      reap_every_s = 3600.;
      executor_hook = Some hook }
  in
  let depth = Obs.Metrics.gauge "server.queue_depth" in
  with_wal_server ~config (fun _server port _wal fake ->
      Fun.protect ~finally:release @@ fun () ->
      let raw user =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        raw_send fd ~request_id:1 ~session_id:0
          (Wire.Login { user; language = "abdl"; db = "university" });
        match (raw_recv fd).Wire.msg with
        | Wire.Logged_in sid -> (fd, sid)
        | _ -> Alcotest.failf "login %s failed" user
      in
      let park_fd, park_sid = raw "park" in
      let a_fd, a_sid = raw "writer" in
      let b_fd, b_sid = raw "reader" in
      let count = Wire.Submit "RETRIEVE ((FILE = exposed)) (COUNT(seq))" in
      (* park the executor, queue A's insert and then B's read behind it,
         so both land in one batch, A first *)
      Atomic.set hold true;
      raw_send park_fd ~request_id:2 ~session_id:park_sid count;
      wait_for "executor parked" (fun () -> Atomic.get entered > 0);
      Fake_fs.arm fake ~kind:Fake_fs.Fsync 1 Fake_fs.Eio;
      raw_send a_fd ~request_id:2 ~session_id:a_sid
        (Wire.Submit "INSERT (<FILE, exposed>, <seq, 1>)");
      wait_for "A queued" (fun () -> Obs.Metrics.gauge_value depth >= 1.);
      raw_send b_fd ~request_id:2 ~session_id:b_sid count;
      wait_for "B queued" (fun () -> Obs.Metrics.gauge_value depth >= 2.);
      release ();
      ignore (raw_recv park_fd);
      (match (raw_recv a_fd).Wire.msg with
      | Wire.Err (Wire.Exec_error, _) -> ()
      | Wire.Output o -> Alcotest.failf "writer acked despite EIO: %s" o
      | _ -> Alcotest.fail "writer: unexpected reply");
      (match (raw_recv b_fd).Wire.msg with
      | Wire.Err (Wire.Exec_error, _) -> ()
      | Wire.Output o ->
        Alcotest.failf "reader saw a write whose fsync failed: %s" o
      | _ -> Alcotest.fail "reader: unexpected reply");
      (* the flusher survived: both connections are served again *)
      raw_send a_fd ~request_id:3 ~session_id:a_sid
        (Wire.Submit "INSERT (<FILE, exposed>, <seq, 2>)");
      (match (raw_recv a_fd).Wire.msg with
      | Wire.Output _ -> ()
      | _ -> Alcotest.fail "later write not acked");
      raw_send b_fd ~request_id:3 ~session_id:b_sid count;
      (match (raw_recv b_fd).Wire.msg with
      | Wire.Output _ -> ()
      | _ -> Alcotest.fail "later read not answered");
      List.iter Unix.close [ park_fd; a_fd; b_fd ])

(* --- the I/O loop ---------------------------------------------------------- *)

(* One client stops reading. Its replies back up in its own socket and
   buffer, never on the executor, so another client's replies keep
   arriving at once; after [send_timeout_s] without write progress the
   server closes the stalled connection, and its session closes with
   it, aborting the transaction it left open. *)
(* One frame, prefix included, read [chunk] bytes at a time with a
   pause after each: a client that reads slower than the server writes. *)
let slow_recv fd ~chunk ~pause_s =
  let read_exactly n =
    let b = Bytes.create n in
    let rec go pos =
      if pos < n then begin
        match Unix.read fd b pos (min chunk (n - pos)) with
        | 0 -> Alcotest.fail "unexpected EOF"
        | k ->
          Thread.delay pause_s;
          go (pos + k)
      end
    in
    go 0;
    Bytes.unsafe_to_string b
  in
  let prefix = read_exactly 4 in
  prefix ^ read_exactly (Int32.to_int (String.get_int32_be prefix 0))

let reply_paths () =
  List.map
    (fun name -> Obs.Metrics.counter_value (Obs.Metrics.counter ("server.reply." ^ name)))
    [ "immediate"; "partial"; "deferred" ]

(* A university database with a [bulk] file of 300 records of ~1 KB
   each, so a RETRIEVE of [n] of them answers ~[n] KB. *)
let bulk_university () =
  let t = university () in
  let h = open_h t Mlds.System.L_abdl in
  for i = 1 to 300 do
    ignore
      (submit_h h
         (Printf.sprintf "INSERT (<FILE, bulk>, <seq, %d>, <txt, '%s'>)" i
            (String.make 1000 (Char.chr (Char.code 'a' + (i mod 26))))))
  done;
  Mlds.System.close_handle h;
  t

(* Pipelined replies to a client that reads slowly through a 4 KiB
   receive window, from a server whose database has a WAL. Each case is
   bursts of requests, each burst sent at once and then read whole,
   8 KiB at a time with a pause after each read: RETRIEVEs of 0 to 300
   bulk records (replies from ~100 B to ~300 KB, many about the 2 KiB a
   minor-heap block holds) and INSERTs, whose replies, and those of the
   reads after them, wait on a fsync. One burst of each case is a flood
   of twelve 300 KB replies. Every frame read equals the
   encoded frame of the reply an in-process submit of the same requests
   gives, in request order. Over the cases, replies left from the
   executor's bytes wholly, partly (the rest copied) and deferred (copied
   into their slot): the property fails if one of the paths never ran. *)
let prop_pipelined_large_replies =
  let open QCheck2.Gen in
  let read =
    map2
      (fun lo n -> `Read (lo, n))
      (oneof [ pure 1; int_range 1 300 ])
      (oneof [ int_range 0 3; int_range 0 300; pure 300 ])
  in
  let op = frequency [ 3, read; 1, map (fun k -> `Write k) nat ] in
  let text = function
    | `Read (lo, n) ->
      Printf.sprintf
        "RETRIEVE ((FILE = bulk) AND (seq >= %d) AND (seq < %d)) (seq, txt)" lo
        (lo + n)
    | `Write k -> Printf.sprintf "INSERT (<FILE, written>, <seq, %d>)" k
  in
  (* twelve 300 KB replies: more than a loopback socket takes (~2.8 MB
     on Linux with a 4 KiB receive window), so one of them leaves only
     partly from the executor's bytes *)
  let flood = List.init 12 (fun _ -> `Read (1, 300)) in
  let bursts =
    map2
      (fun bursts at ->
        List.filteri (fun i _ -> i < at) bursts
        @ [ flood ]
        @ List.filteri (fun i _ -> i >= at) bursts)
      (list_size (int_range 0 3) (list_size (int_range 1 5) op))
      (int_range 0 3)
  in
  let print bursts =
    String.concat " | "
      (List.map (fun b -> String.concat "; " (List.map text b)) bursts)
  in
  QCheck2.Test.make ~name:"loop: pipelined large replies reach a slow reader whole"
    ~count:6 ~print bursts
    (fun bursts ->
      let oracle = open_h (bulk_university ()) Mlds.System.L_abdl in
      let t = bulk_university () in
      let file = Filename.temp_file "mlds_slow_reader" ".wal" in
      Fun.protect ~finally:(fun () ->
          Mlds.System.close_handle oracle;
          remove_files [ file ])
      @@ fun () ->
      (match Mlds.System.attach_wal t ~db:"university" ~file with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "attach_wal: %s" msg);
      with_server ~sys:t (fun _server port ->
          let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect ~finally:(fun () -> try Unix.close a with _ -> ())
          @@ fun () ->
          Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
          Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          raw_send a ~request_id:1 ~session_id:0
            (Wire.Login { user = "slow"; language = "abdl"; db = "university" });
          let sid =
            match (raw_recv a).Wire.msg with
            | Wire.Logged_in id -> id
            | _ -> Alcotest.fail "login failed"
          in
          let id = ref 1 in
          List.for_all
            (fun burst ->
              let sent =
                List.map
                  (fun op ->
                    incr id;
                    let src = text op in
                    raw_send a ~request_id:!id ~session_id:sid (Wire.Submit src);
                    !id, src)
                  burst
              in
              List.for_all
                (fun (request_id, src) ->
                  let want =
                    Bytes.to_string
                      (Wire.frame
                         (Wire.encode_response
                            {
                              Wire.version = Wire.protocol_version;
                              request_id;
                              session_id = sid;
                              msg = Wire.Output (submit_h oracle src);
                            }))
                  in
                  let got = slow_recv a ~chunk:8192 ~pause_s:0.0005 in
                  String.equal got want
                  || QCheck2.Test.fail_reportf
                       "reply to #%d (%s): %d bytes, expected %d bytes" request_id
                       src (String.length got) (String.length want))
                sent)
            bursts))

(* Run the property, then want each reply path to have run. *)
let test_pipelined_large_replies () =
  let before = reply_paths () in
  QCheck2.Test.check_exn prop_pipelined_large_replies;
  List.iter2
    (fun name (b, a) ->
      if a <= b then
        Alcotest.failf "no reply left by the %s path over the property's cases"
          name)
    [ "immediate"; "partial"; "deferred" ]
    (List.combine before (reply_paths ()))

(* The flight recorder's [bytes_out] for an [Output] reply is the length
   its frame announces: for a read that left at once, and for a write
   that waited on its fsync. *)
let test_recorder_bytes_out () =
  let t = university () in
  let file = Filename.temp_file "mlds_bytes_out" ".wal" in
  Fun.protect ~finally:(fun () -> remove_files [ file ]) @@ fun () ->
  (match Mlds.System.attach_wal t ~db:"university" ~file with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "attach_wal: %s" msg);
  with_server ~sys:t (fun _server port ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      raw_send fd ~request_id:1 ~session_id:0
        (Wire.Login { user = "rec"; language = "abdl"; db = "university" });
      let sid =
        match (raw_recv fd).Wire.msg with
        | Wire.Logged_in id -> id
        | _ -> Alcotest.fail "login failed"
      in
      (* the length of the reply's frame, as its prefix announces it, and
         the reply paths it moved *)
      let frame_length request_id src =
        let before = reply_paths () in
        raw_send fd ~request_id ~session_id:sid (Wire.Submit src);
        match Wire.read_frame fd with
        | Ok (Some payload) ->
          (* a direct write is counted once it returns, maybe after the
             client has read the reply *)
          let moved () = List.map2 ( - ) (reply_paths ()) before in
          wait_for "the reply's path counted" (fun () ->
              List.exists (( <> ) 0) (moved ()));
          String.length payload, moved ()
        | _ -> Alcotest.fail "no reply"
      in
      let write_len, write_paths =
        frame_length 2 "INSERT (<FILE, recorded>, <seq, 1>)"
      in
      let read_len, read_paths =
        frame_length 3 "RETRIEVE ((FILE = employee)) (name, salary)"
      in
      Alcotest.(check (list int)) "the write waited on its fsync" [ 0; 0; 1 ]
        write_paths;
      Alcotest.(check (list int)) "the read left at once" [ 1; 0; 0 ] read_paths;
      let c = client port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let events =
        match Client.tail c ~cursor:0 ~slow_cursor:0 () with
        | Ok out ->
          (match Obs.Json.parse out with
          | Ok json ->
            (match Obs.Json.member "events" json with
            | Some (Obs.Json.Arr items) -> items
            | _ -> [])
          | Error msg -> Alcotest.failf "Tail is not JSON: %s" msg)
        | Error e -> Alcotest.failf "tail: %s" (Client.error_to_string e)
      in
      let bytes_out request_id =
        List.find_map
          (fun e ->
            if Obs.Json.int_member "request" e = Some request_id
               && Obs.Json.int_member "session" e = Some sid
            then Obs.Json.int_member "bytes_out" e
            else None)
          events
      in
      Alcotest.(check (option int)) "bytes_out of the write" (Some write_len)
        (bytes_out 2);
      Alcotest.(check (option int)) "bytes_out of the read" (Some read_len)
        (bytes_out 3))

let test_stalled_reader () =
  let send_timeout_s = 2.0 in
  let t = university () in
  (* a file whose RETRIEVE reply runs to about 700 KB *)
  let h = open_h t Mlds.System.L_abdl in
  let pad = String.make 1400 'x' in
  for i = 1 to 500 do
    ignore
      (submit_h h
         (Printf.sprintf "INSERT (<FILE, bulk>, <seq, %d>, <txt, '%s'>)" i pad))
  done;
  Mlds.System.close_handle h;
  (* client B works on another database, clear of A's transaction *)
  (match Mlds.System.define_relational t ~name:"payroll" with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "define payroll: %s" msg);
  (match Mlds.System.open_handle t Mlds.System.L_sql ~db:"payroll" with
  | Error msg -> Alcotest.failf "open sql: %s" msg
  | Ok h ->
    ignore
      (submit_h h
         "CREATE TABLE emp (name CHAR(10), salary INT); INSERT INTO emp \
          VALUES ('a', 10)");
    Mlds.System.close_handle h);
  (* small batches: B's request waits behind at most four of A's *)
  let config =
    { Server.Core.default_config with
      send_timeout_s;
      max_batch = 4;
      reap_every_s = 3600. }
  in
  with_server ~sys:t ~config (fun server port ->
      let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close a with _ -> ())
        (fun () ->
          (* a small receive window: A's socket fills quickly *)
          Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
          Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          let ask id sid msg =
            raw_send a ~request_id:id ~session_id:sid msg;
            (raw_recv a).Wire.msg
          in
          let sid =
            match
              ask 1 0
                (Wire.Login
                   { user = "stall"; language = "abdl"; db = "university" })
            with
            | Wire.Logged_in id -> id
            | _ -> Alcotest.fail "A's login failed"
          in
          List.iter
            (fun (id, msg) ->
              match ask id sid msg with
              | Wire.Output _ -> ()
              | _ -> Alcotest.fail "A's transaction did not start")
            [
              (2, Wire.Begin_txn);
              (3, Wire.Submit "INSERT (<FILE, stall_probe>, <seq, 1>)");
            ];
          let b = client port in
          (match Client.login b ~language:"sql" ~db:"payroll" () with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "B's login: %s" (Client.error_to_string e));
          (* A pipelines 16 large RETRIEVEs, 11 MB of replies, more
             than the server's socket buffer (at most 4 MiB on Linux)
             and the loop's read bound take, and never reads again *)
          Unix.set_nonblock a;
          (try
             for id = 10 to 25 do
               raw_send a ~request_id:id ~session_id:sid
                 (Wire.Submit "RETRIEVE ((FILE = bulk)) (seq, txt)")
             done
           with Unix.Unix_error _ -> ());
          let stalled_at = Unix.gettimeofday () in
          let worst = ref 0. in
          for _ = 1 to 10 do
            let t0 = Unix.gettimeofday () in
            ignore (csubmit b "SELECT SUM(salary) FROM emp");
            worst := Float.max !worst (Unix.gettimeofday () -. t0)
          done;
          Alcotest.(check bool)
            (Printf.sprintf "B's slowest reply (%.3fs) well under %.0fs" !worst
               send_timeout_s)
            true
            (!worst < send_timeout_s /. 2.);
          let rec gone () =
            Server.Core.session_count server = 1
            || Unix.gettimeofday () -. stalled_at < 2. *. send_timeout_s
               && (Thread.delay 0.02;
                   gone ())
          in
          Alcotest.(check bool) "A's session closed within 2 x send_timeout_s"
            true (gone ());
          let c = logged_in port in
          Alcotest.(check bool) "A's transaction aborted" true
            (contains
               (csubmit c "RETRIEVE ((FILE = stall_probe)) (COUNT(seq))")
               "0");
          Client.close c;
          Client.close b))

let threads_now () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> Alcotest.fail "no Threads: line"
        | Some line ->
          (match String.split_on_char ':' line with
          | [ "Threads"; n ] -> int_of_string (String.trim n)
          | _ -> find ())
      in
      find ())

(* The server's threads are the executor, the I/O loop and one flusher
   per WAL that owed a fsync: none per connection. *)
let test_threads_flat () =
  if not (Sys.file_exists "/proc/self/status") then Alcotest.skip ();
  with_server (fun _server port ->
      let first = logged_in port in
      let one = threads_now () in
      let more = List.init 16 (fun _ -> logged_in port) in
      let seventeen = threads_now () in
      List.iter Client.close (first :: more);
      Alcotest.(check int) "threads with 17 clients = with 1" one seventeen)

(* [Unix.select] cannot watch a descriptor at or past FD_SETSIZE: a
   connection accepted onto one is refused with the typed Overloaded
   and closed, and the server goes on serving the others. *)
let test_unwatchable_descriptor () =
  with_server (fun _server port ->
      let held = ref [] in
      (try
         for _ = 1 to 1100 do
           held :=
             Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
             :: !held
         done
       with Unix.Unix_error (Unix.EMFILE, _, _) ->
         (* a descriptor limit under FD_SETSIZE: nothing to refuse *)
         List.iter Unix.close !held;
         Alcotest.skip ());
      let held = !held in
      Fun.protect
        ~finally:(fun () -> List.iter Unix.close held)
        (fun () ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              Alcotest.(check bool) "typed Overloaded" true
                ((raw_recv fd).Wire.msg = Wire.Overloaded);
              Alcotest.(check bool) "then closed" true
                (Wire.read_frame fd = Ok None)));
      let c = logged_in port in
      Alcotest.(check bool) "others still served" true
        (contains (csubmit c "RETRIEVE ((FILE = employee)) (AVG(salary))") "AVG");
      Client.close c)

let suite =
  [
    Alcotest.test_case "handles: isolated currency" `Quick
      test_handles_isolated_currency;
    Alcotest.test_case "handles: transaction fence" `Quick test_handle_txn_fence;
    Alcotest.test_case "handles: close aborts" `Quick test_close_handle_aborts;
    Alcotest.test_case "codec: version/opcode rejects" `Quick test_codec_rejects;
    QCheck_alcotest.to_alcotest prop_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_truncation_rejected;
    QCheck_alcotest.to_alcotest prop_write_frame_two_step;
    QCheck_alcotest.to_alcotest prop_splitter_equals_read_frame;
    Alcotest.test_case "socket: login/submit/logout" `Quick test_socket_basics;
    Alcotest.test_case "socket: an overflow literal is a Parse_error" `Quick
      test_overflow_literal_is_parse_error;
    Alcotest.test_case "socket: sessions isolated" `Quick
      test_socket_session_isolation;
    Alcotest.test_case "socket: spoofed session ids refused" `Quick
      test_socket_session_hijack;
    Alcotest.test_case "socket: connect by hostname" `Quick
      test_connect_by_hostname;
    Alcotest.test_case "socket: explain over the wire" `Quick
      test_socket_explain;
    Alcotest.test_case "socket: typed overload rejection" `Quick
      test_overload_rejection;
    Alcotest.test_case "socket: disconnect aborts txn" `Quick
      test_disconnect_aborts_txn;
    Alcotest.test_case "socket: concurrent clients serialize" `Quick
      test_concurrent_clients;
    Alcotest.test_case "socket: graceful shutdown checkpoints" `Quick
      test_graceful_shutdown_checkpoint;
    Alcotest.test_case "socket: read-only server answers native SQL SELECT"
      `Quick test_read_only_native_sql;
    Alcotest.test_case "batch: request classification" `Quick test_classify;
    Alcotest.test_case "batch: idle reap on a quiet server" `Quick
      test_idle_reap_quiet_server;
    Alcotest.test_case "batch: mixed load over the socket" `Quick
      test_batched_socket_mixed;
    Alcotest.test_case "telemetry: stats/tail round-trip" `Quick
      test_stats_tail_roundtrip;
    Alcotest.test_case "telemetry: tail with recorder disabled" `Quick
      test_tail_with_recorder_disabled;
    Alcotest.test_case "telemetry: forced-slow plan capture" `Quick
      test_forced_slow_capture;
    Alcotest.test_case "telemetry: unknown opcode answered" `Quick
      test_unknown_opcode_answered;
    Alcotest.test_case "telemetry: old server refuses new client" `Quick
      test_client_refused_by_old_server;
    Alcotest.test_case "telemetry: queue-depth gauge tracks drain" `Quick
      test_queue_depth_gauge;
    Alcotest.test_case "fairness: lanes quota and round-robin" `Quick
      test_fair_lane_queue;
    Alcotest.test_case "checkpoint: online trigger and \\checkpoint" `Quick
      test_online_checkpoint;
    Alcotest.test_case "checkpoint: whole, past 2 000 records, pipelined writes"
      `Quick test_whole_checkpoint_pipelined;
    Alcotest.test_case "fairness over the wire: polite served, greedy throttled" `Quick
      test_fair_lanes_over_wire;
    QCheck_alcotest.to_alcotest prop_pipelined_equals_serial;
    Alcotest.test_case "executor: inject sees acked writes" `Quick
      test_inject_sees_acked_writes;
    Alcotest.test_case "fsync EIO: writer gets a typed error" `Quick
      test_fsync_eio_writer;
    Alcotest.test_case "fsync EIO: observing reader fails too" `Quick
      test_fsync_eio_observer;
    Alcotest.test_case "loop: a stalled reader delays only itself" `Quick
      test_stalled_reader;
    Alcotest.test_case "loop: threads do not grow with connections" `Quick
      test_threads_flat;
    Alcotest.test_case "loop: a descriptor select cannot watch is refused"
      `Quick test_unwatchable_descriptor;
    QCheck_alcotest.to_alcotest prop_output_frame;
    Alcotest.test_case "loop: pipelined large replies reach a slow reader whole"
      `Quick test_pipelined_large_replies;
    Alcotest.test_case "telemetry: bytes_out of an Output is its frame length"
      `Quick test_recorder_bytes_out;
  ]

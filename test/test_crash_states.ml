(* The crash-state checker. A workload runs through a recording file
   system (Fake_fs), which logs every create, write, fsync, truncate,
   rename, remove and directory fsync. For every crash point in that
   trace the checker rebuilds, as real files in a fresh temp directory,
   each state a conservative file-system model allows after a power
   loss there, runs the production recovery on it, and requires the
   recovered writes to be a prefix of the issued ones that contains
   every acknowledged one.

   The model (after Pillai et al., "All File Systems Are Not Created
   Equal", OSDI 2014):
   - a file's bytes past its last fsync may be lost: it holds its
     fsynced contents plus any prefix of the writes and truncations
     issued since, the last of them possibly torn in half;
   - a directory entry (create, rename, remove) not yet covered by a
     fsync of its directory may be lost, independently of the others:
     any subset of them persists, so a later entry can survive an
     earlier one that did not.

   Writes are numbered 1, 2, … in issue order; a scenario marks each
   one acknowledged once the call that made it returned ([Fake_fs.mark]).
   The number of states checked is printed, and written to the file
   named by MLDS_CRASH_STATES when that is set (the CI fault-injection
   job keeps it). *)

module SM = Map.Make (String)
module IM = Map.Make (Int)

type data = D_write of int * string | D_trunc of int

let apply_data content = function
  | D_write (off, bytes) ->
    let len = String.length content and n = String.length bytes in
    let b = Bytes.make (max len (off + n)) '\000' in
    Bytes.blit_string content 0 b 0 len;
    Bytes.blit_string bytes 0 b off n;
    Bytes.to_string b
  | D_trunc n ->
    let len = String.length content in
    if n <= len then String.sub content 0 n
    else content ^ String.make (n - len) '\000'

(* Every contents an inode may hold after a power loss. *)
let versions durable pending =
  let rec go acc content = function
    | [] -> content :: acc
    | op :: rest ->
      let torn =
        match op with
        | D_write (off, bytes) when String.length bytes > 1 ->
          [ apply_data content
              (D_write (off, String.sub bytes 0 (String.length bytes / 2))) ]
        | _ -> []
      in
      go ((content :: torn) @ acc) (apply_data content op) rest
  in
  List.sort_uniq compare (go [] durable pending)

let rec subsets = function
  | [] -> [ [] ]
  | x :: rest ->
    let r = subsets rest in
    List.map (fun s -> x :: s) r @ r

let apply_entry names = function
  | Fake_fs.Create (path, ino) -> SM.add path ino names
  | Fake_fs.Rename (src, dst, ino) -> SM.add dst ino (SM.remove src names)
  | Fake_fs.Remove (path, _) -> SM.remove path names
  | _ -> names

(* The model at one crash point. [durable]/[pending] are per inode. *)
type model = {
  names : int SM.t;  (* the current namespace *)
  synced_names : int SM.t;  (* as of the last directory fsync *)
  entries : Fake_fs.op list;  (* directory entries since then, in order *)
  durable : string IM.t;
  pending : data list IM.t;  (* newest first *)
  acked : int list;
}

let push ino op pending = IM.add ino (op :: IM.find ino pending) pending

let step m = function
  | Fake_fs.Acked ids -> { m with acked = ids @ m.acked }
  | Fake_fs.Op op ->
    match op with
    | Fake_fs.Create (_, ino) ->
      {
        m with
        names = apply_entry m.names op;
        entries = m.entries @ [ op ];
        durable = IM.add ino "" m.durable;
        pending = IM.add ino [] m.pending;
      }
    | Fake_fs.Rename _ | Fake_fs.Remove _ ->
      { m with names = apply_entry m.names op; entries = m.entries @ [ op ] }
    | Fake_fs.Dir_sync _ -> { m with synced_names = m.names; entries = [] }
    | Fake_fs.Write (ino, off, bytes) ->
      { m with pending = push ino (D_write (off, bytes)) m.pending }
    | Fake_fs.Truncate (ino, len) ->
      { m with pending = push ino (D_trunc len) m.pending }
    | Fake_fs.Fsync ino ->
      let content =
        List.fold_left apply_data (IM.find ino m.durable)
          (List.rev (IM.find ino m.pending))
      in
      {
        m with
        durable = IM.add ino content m.durable;
        pending = IM.add ino [] m.pending;
      }

(* Every state a power loss may leave at this point: sorted
   (file name, contents) lists. *)
let crash_states m =
  List.concat_map
    (fun kept ->
      let names = List.fold_left apply_entry m.synced_names kept in
      let inodes = List.sort_uniq compare (List.map snd (SM.bindings names)) in
      let choices =
        List.fold_left
          (fun acc ino ->
            let vs =
              versions (IM.find ino m.durable) (List.rev (IM.find ino m.pending))
            in
            List.concat_map
              (fun chosen -> List.map (fun v -> IM.add ino v chosen) vs)
              acc)
          [ IM.empty ] inodes
      in
      List.map
        (fun contents ->
          SM.bindings names
          |> List.map (fun (path, ino) ->
                 (Filename.basename path, IM.find ino contents)))
        choices)
    (subsets m.entries)

(* --- rebuilding a state and recovering it ------------------------------------ *)

let clear dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let materialize dir state =
  clear dir;
  List.iter
    (fun (name, contents) ->
      Fake_fs.write_file (Filename.concat dir name) contents)
    state

let is_prefix ids =
  List.sort compare ids = List.init (List.length ids) (fun i -> i + 1)

type report = { checked : int; failures : string list }

(* Check every distinct crash state of [events], each against the
   largest acknowledged set it can appear with. *)
let check ~initial ~events ~recover =
  let m0 =
    List.fold_left
      (fun m (path, ino, contents) ->
        {
          m with
          names = SM.add path ino m.names;
          synced_names = SM.add path ino m.synced_names;
          durable = IM.add ino contents m.durable;
          pending = IM.add ino [] m.pending;
        })
      {
        names = SM.empty;
        synced_names = SM.empty;
        entries = [];
        durable = IM.empty;
        pending = IM.empty;
        acked = [];
      }
      initial
  in
  let seen = Hashtbl.create 256 in
  let note m =
    List.iter (fun s -> Hashtbl.replace seen s m.acked) (crash_states m)
  in
  let final =
    List.fold_left
      (fun m ev ->
        (match ev with Fake_fs.Op _ -> note m | Fake_fs.Acked _ -> ());
        step m ev)
      m0 events
  in
  note final;
  let dir = Filename.temp_dir "mldscrash" "" in
  let failures =
    Hashtbl.fold
      (fun state acked failures ->
        materialize dir state;
        let bad why =
          Printf.sprintf "%s; acked [%s]; files: %s" why
            (String.concat "," (List.map string_of_int (List.sort compare acked)))
            (String.concat ", "
               (List.map
                  (fun (n, c) -> Printf.sprintf "%s (%d B)" n (String.length c))
                  state))
          :: failures
        in
        match recover dir with
        | Error msg -> bad ("recovery failed: " ^ msg)
        | Ok ids ->
          if not (is_prefix ids) then
            bad
              (Printf.sprintf "recovered [%s], not a prefix of the issued writes"
                 (String.concat "," (List.map string_of_int ids)))
          else if List.exists (fun a -> not (List.mem a ids)) acked then
            bad
              (Printf.sprintf "recovered [%s] lost an acknowledged write"
                 (String.concat "," (List.map string_of_int ids)))
          else failures)
      seen []
  in
  clear dir;
  Sys.rmdir dir;
  { checked = Hashtbl.length seen; failures }

(* --- the scenarios -------------------------------------------------------------- *)

let item id =
  Abdm.Record.make
    [ Abdm.Keyword.file "item"; Abdm.Keyword.make "id" (Abdm.Value.Int id) ]

let ok what = function Ok x -> x | Error msg -> Alcotest.failf "%s: %s" what msg

(* The ids a kernel holds in [attr], less [base]. *)
let ids_in ?(base = 0) kernel attr =
  Mapping.Kernel.select kernel Abdm.Query.always
  |> List.filter_map (fun (_, r) ->
         match Abdm.Record.value_of r attr with
         | Some (Abdm.Value.Int n) when n > base -> Some (n - base)
         | _ -> None)
  |> List.sort compare

let snap dir = Filename.concat dir "db.mlds"

(* Production recovery of a database: its snapshot plus the sibling
   log. No snapshot means nothing was ever saved. *)
let recover_db dir =
  let file = snap dir in
  if not (Sys.file_exists file) then Ok []
  else
    let t = Mlds.System.create () in
    match Mlds.Persist.load_report t ~file with
    | Error msg -> Error msg
    | Ok o ->
      let db = o.Mlds.Persist.loaded_db in
      Ok (ids_in (Option.get (Mlds.System.kernel_of t db)) "id")

(* [n] records of ~200 bytes that [ids_in] does not count: 500 of them
   make a snapshot of two 64 KiB chunks. *)
let padding kernel n =
  for i = 1 to n do
    ignore
      (Mapping.Kernel.insert kernel
         (Abdm.Record.make
            [ Abdm.Keyword.file "pad"; Abdm.Keyword.make "n" (Abdm.Value.Int i);
              Abdm.Keyword.make "note" (Abdm.Value.Str (String.make 160 'x')) ]))
  done

let two_chunks = 500

(* A relational database with a saved snapshot ([pad] padding records,
   none by default) and a WAL beside it, all written through [fake]. *)
let logged_db ?(pad = 0) dir fake =
  let t = Mlds.System.create ~fs:(Fake_fs.fs fake) () in
  ok "define" (Mlds.System.define_relational t ~name:"db");
  padding (Option.get (Mlds.System.kernel_of t "db")) pad;
  ok "save" (Mlds.Persist.save t ~db:"db" ~file:(snap dir));
  let wal =
    ok "attach" (Mlds.System.attach_wal t ~db:"db" ~file:(snap dir ^ ".wal"))
  in
  (t, wal, Option.get (Mlds.System.kernel_of t "db"))

let insert fake kernel id =
  ignore (Mapping.Kernel.insert kernel (item id));
  Fake_fs.mark fake [ id ]

(* WAL append and commit: single inserts and one two-insert transaction. *)
let wal_commits dir fake =
  let _, _, kernel = logged_db dir fake in
  insert fake kernel 1;
  insert fake kernel 2;
  ok "txn"
    (Mapping.Kernel.atomically kernel (fun () ->
         ignore (Mapping.Kernel.insert kernel (item 3));
         ignore (Mapping.Kernel.insert kernel (item 4));
         Ok ()));
  Fake_fs.mark fake [ 3; 4 ];
  insert fake kernel 5

(* A save of a two-chunk snapshot, then writes to the log beside it. *)
let save_and_append dir fake =
  let _, _, kernel = logged_db ~pad:two_chunks dir fake in
  let tmp = Mlds.Fs.temp_of (snap dir) in
  let ino =
    List.find_map
      (function Fake_fs.Op (Fake_fs.Create (p, ino)) when p = tmp -> Some ino | _ -> None)
      (Fake_fs.trace fake)
  in
  let writes =
    List.filter
      (function Fake_fs.Op (Fake_fs.Write (i, _, _)) -> Some i = ino | _ -> false)
      (Fake_fs.trace fake)
  in
  Alcotest.(check bool) "the snapshot took two chunk writes" true (List.length writes >= 2);
  insert fake kernel 1;
  insert fake kernel 2

(* An online checkpoint of a two-chunk snapshot, with writes racing its
   capture, between its chunk writes and following its finish. *)
let online_checkpoint dir fake =
  let t, _, kernel = logged_db ~pad:two_chunks dir fake in
  insert fake kernel 1;
  insert fake kernel 2;
  let ck = ok "begin" (Mlds.Persist.checkpoint_begin t ~db:"db" ~file:(snap dir)) in
  insert fake kernel 3;
  (* past the first chunk: it is written here *)
  ignore (Mlds.Persist.checkpoint_slice ck ~max_records:400);
  insert fake kernel 4;
  ok "finish" (Mlds.Persist.checkpoint_finish ck);
  insert fake kernel 5

(* A truncate_to on its own: the stamped snapshot is already durable when
   the trace starts, and writes follow the truncation. *)
let truncate_to dir fake =
  let t, wal, kernel = logged_db dir fake in
  insert fake kernel 1;
  insert fake kernel 2;
  let stamp = (Mlds.Wal.generation wal, Mlds.Wal.position wal) in
  let text = ok "dump" (Mlds.Persist.dump ~stamp t ~db:"db") in
  Mlds.Fs.replace (Fake_fs.fs fake) ~file:(snap dir) text;
  insert fake kernel 3;
  Fake_fs.settle fake;
  Fake_fs.mark fake [ 1; 2; 3 ];
  Mlds.Wal.truncate_to wal ~keep_from:(snd stamp);
  insert fake kernel 4;
  insert fake kernel 5

(* --- the standby ------------------------------------------------------------- *)

let standby_log dir = Filename.concat dir "standby.wal"

let person_base = 10_000

(* A standby bootstraps from a live primary, then receives four inserts. *)
let standby_bootstrap dir fake =
  Test_replica.with_primary (fun _t _server pport _wal _ship ->
      let t2, st, _ =
        Test_replica.bare_standby ~fs:(Fake_fs.fs fake) ~wal_path:(standby_log dir)
          pport
      in
      Test_replica.wait_for "standby bootstrap" (fun () ->
          Replica.Standby.bootstrapped st);
      let c = Test_replica.logged_in pport in
      for i = 1 to 4 do
        ignore (Test_replica.csubmit c (Test_replica.insert_stmt i))
      done;
      Test_replica.wait_for "replicated" (fun () ->
          Test_replica.count_replicated t2 4);
      Replica.Standby.shutdown st;
      Client.close c)

let person_ids entries =
  List.filter_map
    (function
      | Mlds.Wal.Keyed_insert (_, r) -> (
        match Abdm.Record.value_of r "person" with
        | Some (Abdm.Value.Int n) when n > person_base -> Some (n - person_base)
        | _ -> None)
      | _ -> None)
    entries

(* The standby acknowledges a chunk as soon as the fsync of its log
   after the chunk's write returns: mark the chunk's writes there. *)
let standby_acks dir events =
  let log =
    List.find_map
      (function
        | Fake_fs.Op (Fake_fs.Create (p, ino)) when p = standby_log dir -> Some ino
        | _ -> None)
      events
    |> Option.get
  in
  let buf = Buffer.create 256 in
  List.concat_map
    (fun ev ->
      match ev with
      | Fake_fs.Op (Fake_fs.Write (ino, _, bytes)) when ino = log ->
        Buffer.add_string buf bytes;
        [ ev ]
      | Fake_fs.Op (Fake_fs.Truncate (ino, _)) when ino = log ->
        Buffer.clear buf;
        [ ev ]
      | Fake_fs.Op (Fake_fs.Fsync ino) when ino = log ->
        let entries =
          Option.value ~default:[] (Mlds.Wal.decode_frames (Buffer.contents buf))
        in
        Buffer.clear buf;
        [ ev; Fake_fs.Acked (person_ids entries) ]
      | _ -> [ ev ])
    events

(* The standby's own restart path: the resume point it would start from,
   restored and replayed into a fresh system. *)
let recover_standby dir =
  match Replica.Standby.read_local (standby_log dir) with
  | None -> Ok []
  | Some (_, text, r) ->
    let t = Mlds.System.create () in
    match Mlds.Persist.restore_data t ~db:"university" ~text with
    | Error msg -> Error msg
    | Ok () ->
      let kernel = Option.get (Mlds.System.kernel_of t "university") in
      ignore (Mlds.Persist.apply_wal kernel ~txn:(ref None) r.Mlds.Wal.entries);
      Ok (ids_in ~base:person_base kernel "person")

(* --- running a scenario ------------------------------------------------------ *)

let total = ref 0

let run_scenario ?(acks = fun _ events -> events) ~recover name workload =
  let dir = Filename.temp_dir "mldsfs" "" in
  let fake = Fake_fs.create () in
  workload dir fake;
  let events = acks dir (Fake_fs.trace fake) in
  let r = check ~initial:(Fake_fs.initial fake) ~events ~recover in
  clear dir;
  Sys.rmdir dir;
  total := !total + r.checked;
  Printf.printf "crash states checked (%s): %d\n%!" name r.checked;
  match r.failures with
  | [] -> Alcotest.(check bool) (name ^ ": some states checked") true (r.checked > 0)
  | first :: _ as all ->
    Alcotest.failf "%s: %d of %d crash states fail recovery; e.g. %s" name
      (List.length all) r.checked first

let test_wal_commits () =
  run_scenario ~recover:recover_db "wal append and commit" wal_commits

let test_save_and_append () =
  run_scenario ~recover:recover_db "save and append" save_and_append

let test_online_checkpoint () =
  run_scenario ~recover:recover_db "online checkpoint" online_checkpoint

let test_truncate_to () = run_scenario ~recover:recover_db "truncate_to" truncate_to

let test_standby_bootstrap () =
  run_scenario ~acks:standby_acks ~recover:recover_standby "standby bootstrap"
    standby_bootstrap

(* Runs last: the total over the scenarios. *)
let test_report_total () =
  Printf.printf "crash states checked: %d\n%!" !total;
  (match Sys.getenv_opt "MLDS_CRASH_STATES" with
  | Some path when path <> "" ->
    let oc = open_out path in
    Printf.fprintf oc "crash states checked: %d\n" !total;
    close_out oc
  | _ -> ());
  Alcotest.(check bool) "states were checked" true (!total > 0)

let suite =
  [
    "wal append and commit", `Quick, test_wal_commits;
    "save and append", `Quick, test_save_and_append;
    "online checkpoint", `Quick, test_online_checkpoint;
    "truncate_to", `Quick, test_truncate_to;
    "standby bootstrap", `Quick, test_standby_bootstrap;
    "states checked in total", `Quick, test_report_total;
  ]

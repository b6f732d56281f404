(* The write-ahead log: frame encoding, torn-tail recovery, the failure
   modes a recording file system injects, and the headline
   crash-recovery property — at a random kill point under a random
   workload, recovery loses no confirmed request and exposes no torn
   state. *)

let temp_wal () = Filename.temp_file "mldswal" ".wal"

let item id v =
  Abdm.Record.make
    [
      Abdm.Keyword.file "item";
      Abdm.Keyword.make "id" (Abdm.Value.Int id);
      Abdm.Keyword.make "v" (Abdm.Value.Int v);
    ]

let q_id id =
  Abdm.Query.conj
    [
      Abdm.Predicate.file_eq "item";
      Abdm.Predicate.make "id" Abdm.Predicate.Eq (Abdm.Value.Int id);
    ]

let entry_eq a b = Mlds.Wal.encode_entry a = Mlds.Wal.encode_entry b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* --- encoding ------------------------------------------------------------- *)

let test_crc32_vector () =
  (* the classic check value for CRC-32/ISO-HDLC *)
  Alcotest.(check int) "crc32(123456789)" 0xCBF43926 (Mlds.Wal.crc32 "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Mlds.Wal.crc32 "")

(* The byte-at-a-time CRC-32 that the slice-by-8 loop replaced. *)
let crc32_bytewise b ~pos ~len =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.get b i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* Equal checksums on every alignment of start and length (0..17 each,
   so the 8-byte steps start anywhere and leave every tail length), and
   on longer runs: files written by the byte-wise loop still verify. *)
let prop_crc32_sliced_is_bytewise =
  QCheck2.Test.make ~name:"slice-by-8 CRC-32 = byte-wise CRC-32" ~count:100
    QCheck2.Gen.(pair (bytes_size (int_range 34 300)) (int_range 0 200))
    (fun (b, extra) ->
      let n = Bytes.length b in
      let ok = ref true in
      for pos = 0 to 17 do
        for len = 0 to 17 do
          ok := !ok && Mlds.Wal.crc32_bytes b ~pos ~len = crc32_bytewise b ~pos ~len
        done
      done;
      let pos = min extra (n - 1) in
      !ok
      && Mlds.Wal.crc32_bytes b ~pos ~len:(n - pos) = crc32_bytewise b ~pos ~len:(n - pos)
      && Mlds.Wal.crc32 (Bytes.to_string b) = crc32_bytewise b ~pos:0 ~len:n)

let test_entry_roundtrip () =
  let entries =
    [
      Mlds.Wal.Begin;
      Mlds.Wal.Commit;
      Mlds.Wal.Abort;
      Mlds.Wal.Keyed_insert (42, item 7 70);
      Mlds.Wal.Replace (3, item 1 10);
      Mlds.Wal.Request (Abdl.Ast.Delete (q_id 5));
      Mlds.Wal.Request
        (Abdl.Ast.Update
           ( q_id 2,
             [ Abdm.Modifier.Set_arith ("v", Abdm.Modifier.Add, Abdm.Value.Int 1) ] ));
    ]
  in
  List.iter
    (fun e ->
      match Mlds.Wal.decode_entry (Mlds.Wal.encode_entry e) with
      | Ok d ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip %s" (Mlds.Wal.encode_entry e))
          true (entry_eq e d)
      | Error msg -> Alcotest.fail msg)
    entries;
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Mlds.Wal.decode_entry "NOT AN ENTRY"))

(* --- append / recover ------------------------------------------------------ *)

let script = [ Mlds.Wal.Begin; Keyed_insert (1, item 1 10); Commit ]

let test_append_recover () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  List.iter (Mlds.Wal.append wal) script;
  Mlds.Wal.sync wal;
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "frames" 3 r.Mlds.Wal.frames;
  Alcotest.(check bool) "not torn" false r.Mlds.Wal.torn;
  Alcotest.(check bool) "entries match" true
    (List.for_all2 entry_eq script r.Mlds.Wal.entries);
  (* reopening appends after the existing frames *)
  let wal = Mlds.Wal.open_log file in
  Mlds.Wal.append wal Mlds.Wal.Abort;
  Mlds.Wal.close wal;
  Alcotest.(check int) "reopen appends" 4 (Mlds.Wal.recover file).Mlds.Wal.frames;
  Sys.remove file

let test_recover_missing_and_empty () =
  let r = Mlds.Wal.recover "/nonexistent/no.wal" in
  Alcotest.(check int) "absent = empty log" 0 r.Mlds.Wal.frames;
  let file = temp_wal () in
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "empty file" 0 r.Mlds.Wal.frames;
  Alcotest.(check bool) "empty not torn" false r.Mlds.Wal.torn;
  Sys.remove file

let test_recover_corrupt_tail () =
  (* flip a byte in the last frame: recovery keeps the prefix, reports torn *)
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  List.iter (Mlds.Wal.append wal) script;
  Mlds.Wal.close wal;
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let bytes = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  Bytes.set bytes (n - 1) '\xff';
  let oc = open_out_bin file in
  output_bytes oc bytes;
  close_out oc;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "prefix kept" 2 r.Mlds.Wal.frames;
  Alcotest.(check bool) "torn" true r.Mlds.Wal.torn;
  Sys.remove file

(* --- crashes through the file-system seam ----------------------------------- *)

(* The ways a log append can die, as faults of {!Fake_fs}: the machine
   loses power with the frame written but not fsynced (every byte since
   the last fsync is gone), or the process dies mid-write leaving half
   the frame, or [n] bytes of it. *)
type failure = Crash_before_fsync | Crash_mid_frame | Short_write of int

let fault_of = function
  | Crash_before_fsync -> Fake_fs.Lose_unsynced
  | Crash_mid_frame -> Fake_fs.Torn_half
  | Short_write n -> Fake_fs.Torn n

(* the [after]-th write to [file] from now meets [failure] *)
let arm_crash fake ~file ~after failure =
  Fake_fs.arm fake ~kind:Fake_fs.Write ~path:(String.equal file) after
    (fault_of failure)

let crash_with failure =
  let file = temp_wal () in
  let fake = Fake_fs.create () in
  let wal = Mlds.Wal.open_log ~fs:(Fake_fs.fs fake) file in
  Mlds.Wal.append wal Mlds.Wal.Begin;
  Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (1, item 1 10));
  Mlds.Wal.sync wal;
  arm_crash fake ~file ~after:2 failure;
  Mlds.Wal.append wal Mlds.Wal.Commit;
  (* frame 3 survives; frame 4 hits the failpoint *)
  let crashed =
    match Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (2, item 2 20)) with
    | exception Mlds.Wal.Crash _ -> true
    | () -> false
  in
  Alcotest.(check bool) "failpoint fired" true crashed;
  Alcotest.(check bool) "handle dead after crash" true
    (match Mlds.Wal.append wal Mlds.Wal.Abort with
    | exception Mlds.Wal.Crash _ -> true
    | () -> false);
  let r = Mlds.Wal.recover file in
  Sys.remove file;
  r

let test_crash_mid_frame () =
  let r = crash_with Crash_mid_frame in
  (* the half-written 4th frame is a torn tail; the first 3 survive *)
  Alcotest.(check int) "prefix survives" 3 r.Mlds.Wal.frames;
  Alcotest.(check bool) "torn tail reported" true r.Mlds.Wal.torn

let test_short_write () =
  let r = crash_with (Short_write 3) in
  Alcotest.(check int) "prefix survives" 3 r.Mlds.Wal.frames;
  Alcotest.(check bool) "torn tail reported" true r.Mlds.Wal.torn

let test_crash_before_fsync () =
  let r = crash_with Crash_before_fsync in
  (* every byte after the last sync is gone: frames 3 and 4 both vanish,
     and the file ends cleanly at the synced prefix *)
  Alcotest.(check int) "only the synced prefix survives" 2 r.Mlds.Wal.frames;
  Alcotest.(check bool) "clean cut, not torn" false r.Mlds.Wal.torn

let test_truncate_and_fsync_knob () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log ~fsync:false file in
  Alcotest.(check bool) "knob off" false (Mlds.Wal.fsync_enabled wal);
  List.iter (Mlds.Wal.append wal) script;
  Mlds.Wal.sync wal;
  (* a no-op sync: still recoverable because close flushes *)
  Mlds.Wal.truncate_to wal ~keep_from:(Mlds.Wal.position wal);
  Alcotest.(check int) "truncated" 0 (Mlds.Wal.recover file).Mlds.Wal.frames;
  Mlds.Wal.append wal Mlds.Wal.Begin;
  Mlds.Wal.sync wal;
  Mlds.Wal.close wal;
  Mlds.Wal.close wal;
  (* close is idempotent *)
  Alcotest.(check int) "post-truncate appends land" 1
    (Mlds.Wal.recover file).Mlds.Wal.frames;
  Sys.remove file

let state_of_kernel kernel =
  Mapping.Kernel.select kernel Abdm.Query.always
  |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)
  |> List.sort compare

let state_of_store store =
  Abdm.Store.select store Abdm.Query.always
  |> List.map (fun (k, r) -> k, Abdm.Record.to_string r)
  |> List.sort compare

(* --- generations, positions, online truncation ----------------------------- *)

let test_generation_and_position () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  Alcotest.(check int) "virgin log is generation 0" 0 (Mlds.Wal.generation wal);
  Alcotest.(check int) "empty log at position 0" 0 (Mlds.Wal.position wal);
  List.iter (Mlds.Wal.append wal) script;
  let pos = Mlds.Wal.position wal in
  Alcotest.(check bool) "position advances" true (pos > 0);
  Mlds.Wal.truncate_to wal ~keep_from:(Mlds.Wal.position wal);
  Alcotest.(check int) "truncate bumps generation" 1 (Mlds.Wal.generation wal);
  Mlds.Wal.append wal Mlds.Wal.Begin;
  Mlds.Wal.close wal;
  (* reopening reads the generation marker back *)
  let wal = Mlds.Wal.open_log file in
  Alcotest.(check int) "generation survives reopen" 1
    (Mlds.Wal.generation wal);
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "recover reports the generation" 1 r.Mlds.Wal.gen;
  Alcotest.(check int) "marker not counted as a frame" 1 r.Mlds.Wal.frames;
  Sys.remove file

let test_truncate_to_keeps_tail () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  List.iter (Mlds.Wal.append wal) script;
  let pos = Mlds.Wal.position wal in
  (* two frames appended after the "snapshot position" *)
  Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (9, item 9 90));
  Mlds.Wal.append wal Mlds.Wal.Abort;
  Mlds.Wal.truncate_to wal ~keep_from:pos;
  Alcotest.(check int) "generation bumped" 1 (Mlds.Wal.generation wal);
  (* the handle stays usable after the swap *)
  Mlds.Wal.append wal Mlds.Wal.Commit;
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "tail + post-truncate appends survive" 3
    r.Mlds.Wal.frames;
  Alcotest.(check int) "new generation on disk" 1 r.Mlds.Wal.gen;
  Alcotest.(check bool) "tail content preserved" true
    (match r.Mlds.Wal.entries with
    | [ Mlds.Wal.Keyed_insert (9, _); Mlds.Wal.Abort; Mlds.Wal.Commit ] -> true
    | _ -> false);
  (* a stamp from the old generation no longer skips anything *)
  let r = Mlds.Wal.recover ~skip:(0, pos) file in
  Alcotest.(check int) "stale-generation stamp skips nothing" 0
    r.Mlds.Wal.skipped;
  Sys.remove file

(* A crash in truncate_to's window between building the replacement log
   and renaming it into place used to leave the orphan on disk forever.
   open_log must detect and remove it — the crash happened before the
   rename, so the original log is still the truth and the orphan is pure
   garbage. *)
let test_truncate_crash_leaves_no_swap () =
  let file = temp_wal () in
  let swap = Mlds.Fs.temp_of file in
  let fake = Fake_fs.create () in
  let wal = Mlds.Wal.open_log ~fs:(Fake_fs.fs fake) file in
  List.iter (Mlds.Wal.append wal) script;
  let pos = Mlds.Wal.position wal in
  Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (9, item 9 90));
  Fake_fs.arm fake ~kind:Fake_fs.Rename 1 Fake_fs.Stop;
  (match Mlds.Wal.truncate_to wal ~keep_from:pos with
  | () -> Alcotest.fail "armed truncate_to should have crashed"
  | exception Mlds.Wal.Crash _ -> ());
  Alcotest.(check bool) "the .swap orphan is on disk" true
    (Sys.file_exists swap);
  (* the machine comes back: the old log is intact, and opening it
     sweeps the orphan *)
  let removed_before =
    Obs.Metrics.counter_value (Obs.Metrics.counter "wal.stale_swap_removed")
  in
  let wal2 = Mlds.Wal.open_log file in
  Alcotest.(check bool) "open_log removed the orphan" false
    (Sys.file_exists swap);
  Alcotest.(check int) "removal is counted" (removed_before + 1)
    (Obs.Metrics.counter_value (Obs.Metrics.counter "wal.stale_swap_removed"));
  Alcotest.(check int) "old generation still current" 0
    (Mlds.Wal.generation wal2);
  Mlds.Wal.close wal2;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "every pre-crash frame survives"
    (List.length script + 1) r.Mlds.Wal.frames;
  (* and the next truncate_to (unarmed) completes normally *)
  let wal3 = Mlds.Wal.open_log file in
  Mlds.Wal.truncate_to wal3 ~keep_from:pos;
  Alcotest.(check int) "clean truncation after recovery" 1
    (Mlds.Wal.generation wal3);
  Mlds.Wal.close wal3;
  Sys.remove file

(* A truncate_to whose replace fails must not leave the handle writing
   where recovery will not look. Failing before the rename (the temp
   file's write), the handle keeps the old log and what it appends next
   is recovered. Failing after it (the directory fsync), the handle
   points at the unlinked old log, so it dies: a later append raises
   instead of being acked into a file that is gone. *)
let test_truncate_to_failed_replace () =
  let file = temp_wal () in
  let tmp = Mlds.Fs.temp_of file in
  let fake = Fake_fs.create () in
  let wal = Mlds.Wal.open_log ~fs:(Fake_fs.fs fake) file in
  List.iter (Mlds.Wal.append wal) script;
  let pos = Mlds.Wal.position wal in
  Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (9, item 9 90));
  Fake_fs.arm fake ~kind:Fake_fs.Write ~path:(String.equal tmp) 1 Fake_fs.Eio;
  (match Mlds.Wal.truncate_to wal ~keep_from:pos with
  | () -> Alcotest.fail "armed truncate_to should have failed"
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  Alcotest.(check bool) "the failed replace removed its temp file" false
    (Sys.file_exists tmp);
  Mlds.Wal.append wal Mlds.Wal.Commit;
  Mlds.Wal.sync wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "old generation still on disk" 0 r.Mlds.Wal.gen;
  Alcotest.(check int) "the append after the failure is recovered"
    (List.length script + 2) r.Mlds.Wal.frames;
  Fake_fs.arm fake ~kind:Fake_fs.Fsync_dir 1 Fake_fs.Eio;
  (match Mlds.Wal.truncate_to wal ~keep_from:pos with
  | () -> Alcotest.fail "armed truncate_to should have failed"
  | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
  (match Mlds.Wal.append wal Mlds.Wal.Abort with
  | () -> Alcotest.fail "append went to the replaced log"
  | exception Mlds.Wal.Crash _ -> ());
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "the renamed log is the new generation" 1
    r.Mlds.Wal.gen;
  Alcotest.(check bool) "it holds the tail, and nothing was acked past it"
    true
    (match r.Mlds.Wal.entries with
    | [ Mlds.Wal.Keyed_insert (9, _); Mlds.Wal.Commit ] -> true
    | _ -> false);
  Sys.remove file

let test_skip_stale_frames () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  List.iter (Mlds.Wal.append wal) script;
  let stamp = (Mlds.Wal.generation wal, Mlds.Wal.position wal) in
  Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (9, item 9 90));
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover ~skip:stamp file in
  Alcotest.(check int) "covered frames skipped" 3 r.Mlds.Wal.skipped;
  Alcotest.(check int) "post-stamp frame replays" 1 r.Mlds.Wal.frames;
  Alcotest.(check bool) "the surviving frame is the late one" true
    (match r.Mlds.Wal.entries with
    | [ Mlds.Wal.Keyed_insert (9, _) ] -> true
    | _ -> false);
  Sys.remove file

let test_trim_torn_tail () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  List.iter (Mlds.Wal.append wal) script;
  Mlds.Wal.close wal;
  let clean = (Unix.stat file).Unix.st_size in
  (* garbage after the valid prefix: a torn half-frame *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 file in
  output_string oc "\x00\x00\x01\x00garbage";
  close_out oc;
  let r = Mlds.Wal.recover file in
  Alcotest.(check bool) "torn without trim" true r.Mlds.Wal.torn;
  Alcotest.(check bool) "untrimmed" false r.Mlds.Wal.trimmed;
  let r = Mlds.Wal.recover ~trim:true file in
  Alcotest.(check bool) "trim reported" true r.Mlds.Wal.trimmed;
  Alcotest.(check bool) "trim succeeded" false r.Mlds.Wal.trim_failed;
  Alcotest.(check int) "file cut back to the valid prefix" clean
    (Unix.stat file).Unix.st_size;
  (* appends now land where recovery can reach them *)
  let wal = Mlds.Wal.open_log file in
  Mlds.Wal.append wal Mlds.Wal.Commit;
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "post-trim append recovered" 4 r.Mlds.Wal.frames;
  Alcotest.(check bool) "no longer torn" false r.Mlds.Wal.torn;
  Sys.remove file

(* --- floats through the log ------------------------------------------------ *)

(* A frame printed a float as %g, so 2.71828182 and 2.71828 logged as the
   same text: the replayed DELETE of the first removed the second too, and
   recovery lost an acknowledged insert. *)
let test_float_frames_replay_exactly () =
  let snap = Filename.temp_file "mldssnap" ".mlds" in
  let file = snap ^ ".wal" in
  let sys_a = Mlds.System.create () in
  (match Mlds.System.define_relational sys_a ~name:"floats" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (match Mlds.Persist.save sys_a ~db:"floats" ~file:snap with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (match Mlds.System.attach_wal sys_a ~db:"floats" ~file with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let kernel = Option.get (Mlds.System.kernel_of sys_a "floats") in
  let point k x =
    Abdm.Record.make
      [ Abdm.Keyword.file "pt"; Abdm.Keyword.make "k" (Abdm.Value.Int k);
        Abdm.Keyword.make "x" (Abdm.Value.Float x) ]
  in
  ignore (Mapping.Kernel.insert kernel (point 2 2.71828182));
  ignore (Mapping.Kernel.insert kernel (point 3 2.71828));
  ignore (Mapping.Kernel.insert kernel (point 4 3.0));
  ignore
    (Mapping.Kernel.delete kernel
       (Abdm.Query.conj
          [ Abdm.Predicate.make "x" Abdm.Predicate.Eq (Abdm.Value.Float 2.71828182) ]));
  let live = Mapping.Kernel.select kernel Abdm.Query.always in
  Alcotest.(check (list int)) "live keeps k=3 and k=4" [ 2; 3 ] (List.map fst live);
  let sys_b = Mlds.System.create () in
  (match Mlds.Persist.load sys_b ~file:snap with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let recovered =
    Mapping.Kernel.select (Option.get (Mlds.System.kernel_of sys_b "floats")) Abdm.Query.always
  in
  (* structural: the floats are bit-equal and 3.0 did not become Int 3 *)
  Alcotest.(check bool) "recovered = live" true (recovered = live);
  Sys.remove snap;
  Sys.remove file

(* --- the checkpoint crash window ------------------------------------------- *)

(* The checkpoint's crash window as a fault of the file system: the first
   operation on the log (or its replacement) after the snapshot is
   durable fails, so the checkpoint stops between save and truncate. *)
let arm_checkpoint_window fake ~file =
  Fake_fs.arm fake
    ~path:(fun p -> p = file || p = Mlds.Fs.temp_of file)
    1 Fake_fs.Eio

(* The regression the generation stamp exists for: a crash in the exact
   window between the durable snapshot save and the WAL truncation used
   to leave a snapshot *plus* a full log whose replay re-applied every
   covered frame — double-applying non-idempotent mutations (an UPDATE
   with an arithmetic modifier applied twice is visible). Now the
   snapshot is stamped with the WAL (generation, position) it covers and
   replay skips the covered frames. *)
let test_checkpoint_crash_window () =
  let snap = Filename.temp_file "mldssnap" ".mlds" in
  let file = snap ^ ".wal" in
  let fake = Fake_fs.create () in
  let sys_a = Mlds.System.create ~fs:(Fake_fs.fs fake) () in
  (match Mlds.System.define_relational sys_a ~name:"crash" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (match Mlds.System.attach_wal sys_a ~db:"crash" ~file with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let kernel = Option.get (Mlds.System.kernel_of sys_a "crash") in
  ignore (Mapping.Kernel.insert kernel (item 1 10));
  let add100 =
    [ Abdm.Modifier.Set_arith ("v", Abdm.Modifier.Add, Abdm.Value.Int 100) ]
  in
  ignore (Mapping.Kernel.update kernel (q_id 1) add100);
  (* v = 110, logged as INSERT + non-idempotent UPDATE *)
  arm_checkpoint_window fake ~file;
  (match Mlds.Persist.checkpoint sys_a ~db:"crash" ~file:snap with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "injected checkpoint crash did not fire");
  (* the snapshot is durable, the WAL was never truncated; the machine
     dies after one more confirmed update (v = 210) *)
  ignore (Mapping.Kernel.update kernel (q_id 1) add100);
  let confirmed = state_of_kernel kernel in
  let sys_b = Mlds.System.create () in
  let outcome =
    match Mlds.Persist.load_report sys_b ~file:snap with
    | Ok o -> o
    | Error msg -> failwith msg
  in
  let report = Option.get outcome.Mlds.Persist.recovery in
  let recovered =
    state_of_kernel (Option.get (Mlds.System.kernel_of sys_b "crash"))
  in
  Alcotest.(check bool) "covered frames were skipped" true
    (report.Mlds.Persist.skipped > 0);
  Alcotest.(check int) "the post-snapshot update replayed once" 1
    report.Mlds.Persist.applied;
  Alcotest.(check bool) "no double-apply: recovered = confirmed" true
    (recovered = confirmed);
  Sys.remove snap;
  Sys.remove file

(* A clean online checkpoint: begin/slice/finish interleaved with writes
   that land after the captured position, then recovery = snapshot +
   surviving tail. *)
let test_incremental_checkpoint_slices () =
  let snap = Filename.temp_file "mldssnap" ".mlds" in
  let file = snap ^ ".wal" in
  let sys_a = Mlds.System.create () in
  (match Mlds.System.define_relational sys_a ~name:"crash" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (match Mlds.System.attach_wal sys_a ~db:"crash" ~file with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let kernel = Option.get (Mlds.System.kernel_of sys_a "crash") in
  for id = 1 to 8 do
    ignore (Mapping.Kernel.insert kernel (item id (10 * id)))
  done;
  let ck =
    match Mlds.Persist.checkpoint_begin sys_a ~db:"crash" ~file:snap with
    | Ok ck -> ck
    | Error msg -> failwith msg
  in
  (* writes racing the in-flight checkpoint: not in the capture, beyond
     the stamped position, so they survive the truncation *)
  ignore (Mapping.Kernel.insert kernel (item 100 1000));
  let rec drain steps =
    match Mlds.Persist.checkpoint_slice ck ~max_records:3 with
    | `More left ->
      Alcotest.(check bool) "pending count shrinks" true (left < 8);
      drain (steps + 1)
    | `Ready -> steps
  in
  let steps = drain 0 in
  Alcotest.(check bool) "capture took several slices" true (steps >= 2);
  ignore (Mapping.Kernel.insert kernel (item 101 1010));
  (match Mlds.Persist.checkpoint_finish ck with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let confirmed = state_of_kernel kernel in
  let sys_b = Mlds.System.create () in
  (match Mlds.Persist.load_report sys_b ~file:snap with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let recovered =
    state_of_kernel (Option.get (Mlds.System.kernel_of sys_b "crash"))
  in
  Alcotest.(check bool) "snapshot + surviving tail = confirmed state" true
    (recovered = confirmed);
  Sys.remove snap;
  Sys.remove file

(* --- group commit ----------------------------------------------------------- *)

let test_sync_skips_when_clean () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  List.iter (Mlds.Wal.append wal) script;
  Mlds.Wal.sync wal;
  let n = Mlds.Wal.fsyncs wal in
  (* nothing appended since: these must not reach the kernel *)
  Mlds.Wal.sync wal;
  Mlds.Wal.sync wal;
  Alcotest.(check int) "clean syncs are free" n (Mlds.Wal.fsyncs wal);
  Mlds.Wal.append wal Mlds.Wal.Abort;
  Mlds.Wal.sync wal;
  Alcotest.(check int) "a dirty sync costs one fsync" (n + 1)
    (Mlds.Wal.fsyncs wal);
  Mlds.Wal.close wal;
  Sys.remove file

(* The server's bracket: [begin_group], then [leave_group] and the
   covering [sync_to] a flusher runs. Whether a group is open shows in
   what a dirty [sync] costs: one fsync outside a group, none inside. *)
let test_group_commit_single_fsync () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  let sync_cost () =
    Mlds.Wal.append wal Mlds.Wal.Abort;
    let before = Mlds.Wal.fsyncs wal in
    Mlds.Wal.sync wal;
    Mlds.Wal.fsyncs wal - before
  in
  Alcotest.(check int) "not grouping yet" 1 (sync_cost ());
  Mlds.Wal.begin_group wal;
  Alcotest.(check int) "grouping" 0 (sync_cost ());
  for k = 1 to 5 do
    Mlds.Wal.append wal Mlds.Wal.Begin;
    Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (k, item k (10 * k)));
    Mlds.Wal.append wal Mlds.Wal.Commit;
    (* the commit-time sync each request performs — deferred in a group *)
    Mlds.Wal.sync wal
  done;
  let before = Mlds.Wal.fsyncs wal in
  Mlds.Wal.leave_group wal;
  Mlds.Wal.sync_to wal (Mlds.Wal.committed_position wal);
  Alcotest.(check int) "five commits, one covering fsync" (before + 1)
    (Mlds.Wal.fsyncs wal);
  Alcotest.(check int) "group closed" 1 (sync_cost ());
  Mlds.Wal.close wal;
  let r = Mlds.Wal.recover file in
  Alcotest.(check int) "all five commits durable" 18 r.Mlds.Wal.frames;
  Alcotest.(check bool) "not torn" false r.Mlds.Wal.torn;
  Sys.remove file

(* The group-commit durability property, mirroring the server's ack
   protocol: inside a group, a commit is acknowledged only if (a) its own
   appends completed and (b) the covering fsync after [leave_group]
   succeeded.
   Under a random failpoint anywhere in the group, every acknowledged
   commit must survive recovery. *)
let prop_group_commit_crash =
  QCheck2.Test.make
    ~name:"group commit crash: every acked commit survives recovery"
    ~count:80
    QCheck2.Gen.(
      pair
        (int_range 1 8)
        (option
           (pair (int_range 1 30)
              (oneofl [ Crash_before_fsync; Crash_mid_frame; Short_write 5 ]))))
    (fun (commits, crash) ->
      let file = temp_wal () in
      let fake = Fake_fs.create () in
      let wal = Mlds.Wal.open_log ~fs:(Fake_fs.fs fake) file in
      (match crash with
      | Some (after, failure) -> arm_crash fake ~file ~after failure
      | None -> ());
      Mlds.Wal.begin_group wal;
      let appended = ref [] in
      let crashed = ref false in
      for k = 1 to commits do
        if not !crashed then
          match
            Mlds.Wal.append wal Mlds.Wal.Begin;
            Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (k, item k k));
            Mlds.Wal.append wal Mlds.Wal.Commit;
            Mlds.Wal.sync wal
          with
          | () -> appended := k :: !appended
          | exception Mlds.Wal.Crash _ -> crashed := true
      done;
      (* the server releases acks only after the covering fsync *)
      let acked =
        if !crashed then []
        else
          match
            Mlds.Wal.leave_group wal;
            Mlds.Wal.sync_to wal (Mlds.Wal.committed_position wal)
          with
          | () -> List.rev !appended
          | exception Mlds.Wal.Crash _ -> []
      in
      if not !crashed then Mlds.Wal.close wal;
      let r = Mlds.Wal.recover file in
      Sys.remove file;
      let durable =
        List.filter_map
          (function Mlds.Wal.Keyed_insert (k, _) -> Some k | _ -> None)
          r.Mlds.Wal.entries
      in
      let missing = List.filter (fun k -> not (List.mem k durable)) acked in
      if missing <> [] then
        QCheck2.Test.fail_reportf
          "acked commits lost: %s (acked %s, durable %s, %d frames, torn=%b)"
          (String.concat "," (List.map string_of_int missing))
          (String.concat "," (List.map string_of_int acked))
          (String.concat "," (List.map string_of_int durable))
          r.Mlds.Wal.frames r.Mlds.Wal.torn
      else true)

(* An fsync EIO: the covering fsync reports a disk error, the durable
   position does not move, and the handle stays usable — a later sync
   retries and lands. *)
let test_fsync_eio () =
  let file = temp_wal () in
  let fake = Fake_fs.create () in
  let wal = Mlds.Wal.open_log ~fs:(Fake_fs.fs fake) file in
  Fake_fs.arm fake ~kind:Fake_fs.Fsync 1 Fake_fs.Eio;
  List.iter (Mlds.Wal.append wal) script;
  let synced = Mlds.Wal.synced_position wal in
  (match Mlds.Wal.sync wal with
  | () -> Alcotest.fail "fsync EIO not raised"
  | exception Unix.Unix_error (Unix.EIO, "fsync", _) -> ());
  Alcotest.(check int) "nothing newly durable" synced
    (Mlds.Wal.synced_position wal);
  Mlds.Wal.sync wal;
  Alcotest.(check int) "the retry lands" (Mlds.Wal.position wal)
    (Mlds.Wal.synced_position wal);
  Mlds.Wal.close wal;
  Alcotest.(check int) "all frames recovered" 3
    (Mlds.Wal.recover file).Mlds.Wal.frames;
  Sys.remove file

(* A flusher's fsync covers everything appended before it began, which
   can reach past the position it was asked for. A reply waiting for
   such a position must be released at once: the log owes no fsync for
   it, so no later request would ever settle it. *)
let test_flusher_covers_past_goal () =
  let file = temp_wal () in
  let wal = Mlds.Wal.open_log file in
  let flusher = Server.Flusher.create ~on_durable:ignore wal in
  let commit k =
    List.iter (Mlds.Wal.append wal)
      [ Mlds.Wal.Begin; Mlds.Wal.Keyed_insert (k, item k k); Mlds.Wal.Commit ];
    Mlds.Wal.sync wal;
    Mlds.Wal.committed_position wal
  in
  Mlds.Wal.begin_group wal;
  let first = commit 1 in
  let second = commit 2 in
  Mlds.Wal.leave_group wal;
  Server.Flusher.request flusher first;
  Server.Flusher.drain flusher;
  Alcotest.(check int) "the fsync covered both commits" second
    (Mlds.Wal.synced_position wal);
  let released = ref false in
  Server.Flusher.when_durable flusher second (fun failed ->
      released := failed = None);
  Alcotest.(check bool) "released without another request" true !released;
  Server.Flusher.stop flusher;
  Mlds.Wal.close wal;
  Sys.remove file

(* The pipelined kill point: batch N's commit position has been handed
   to a flusher (or is still waiting to be), batch N+1 has executed and
   appended, and the machine dies — with N's covering fsync possibly
   still pending. Replies are released exactly as the server releases
   them: through [Server.Flusher.when_durable] at the commit position of
   their admission (reads) or execution (commits). After recovery, every
   acked commit survives, and every read delivered before the crash
   shows only writes that survived. *)
let prop_pipelined_commit_crash =
  QCheck2.Test.make
    ~name:"pipelined commit crash: no delivered reply shows a lost write"
    ~count:60
    QCheck2.Gen.(
      quad
        (list_size (int_range 1 6) bool)
        (list_size (int_range 1 6) bool)
        bool
        (oneofl [ Crash_before_fsync; Crash_mid_frame; Short_write 5 ]))
    (fun (batch_n, batch_n1, pending, failure) ->
      let file = temp_wal () in
      let fake = Fake_fs.create () in
      let wal = Mlds.Wal.open_log ~fs:(Fake_fs.fs fake) file in
      let flusher = Server.Flusher.create ~on_durable:ignore wal in
      let mx = Mutex.create () in
      let acked = ref [] and shown = ref [] in
      let committed = ref [] and next = ref 0 in
      let deliver f = function
        | None -> Mutex.protect mx f
        | Some _ -> ()
      in
      (* one batch: true = a committing insert, false = a read of every
         commit executed so far *)
      let run_batch ops =
        Mlds.Wal.begin_group wal;
        List.iter
          (fun commit ->
            if commit then begin
              incr next;
              let k = !next in
              Mlds.Wal.append wal Mlds.Wal.Begin;
              Mlds.Wal.append wal (Mlds.Wal.Keyed_insert (k, item k k));
              Mlds.Wal.append wal Mlds.Wal.Commit;
              Mlds.Wal.sync wal;
              committed := k :: !committed;
              Server.Flusher.when_durable flusher
                (Mlds.Wal.committed_position wal)
                (deliver (fun () -> acked := k :: !acked))
            end
            else begin
              let view = !committed in
              Server.Flusher.when_durable flusher
                (Mlds.Wal.committed_position wal)
                (deliver (fun () -> shown := view @ !shown))
            end)
          ops
      in
      run_batch batch_n;
      Mlds.Wal.leave_group wal;
      let goal = Mlds.Wal.committed_position wal in
      if not pending then Server.Flusher.request flusher goal;
      run_batch batch_n1;
      (* the kill, before batch N+1 ends: the next append dies *)
      arm_crash fake ~file ~after:1 failure;
      (try Mlds.Wal.append wal Mlds.Wal.Abort with Mlds.Wal.Crash _ -> ());
      (* a flush still pending at the crash now meets a dead handle *)
      if pending then Server.Flusher.request flusher goal;
      Server.Flusher.stop flusher;
      let r = Mlds.Wal.recover file in
      Sys.remove file;
      let durable =
        List.filter_map
          (function Mlds.Wal.Keyed_insert (k, _) -> Some k | _ -> None)
          r.Mlds.Wal.entries
      in
      let lost l = List.filter (fun k -> not (List.mem k durable)) l in
      match lost !acked, lost !shown with
      | [], [] -> true
      | a, s ->
        QCheck2.Test.fail_reportf
          "lost acked commits [%s], lost writes shown to readers [%s] \
           (durable [%s], pending=%b)"
          (String.concat "," (List.map string_of_int a))
          (String.concat "," (List.map string_of_int s))
          (String.concat "," (List.map string_of_int durable))
          pending)

(* --- the crash-recovery property ------------------------------------------- *)

(* One workload step. [Op_txn] groups its sub-ops through
   [Mapping.Kernel.atomically]; [Op_checkpoint] takes an online
   checkpoint mid-workload ([true] = with the injected fault in the
   window between the durable snapshot and the WAL truncation). *)
type op =
  | Op_insert of int * int
  | Op_delete of int
  | Op_update of int
  | Op_txn of op list
  | Op_checkpoint of bool

let gen_ops =
  QCheck2.Gen.(
    let base =
      oneof
        [
          map2 (fun id v -> Op_insert (id, v)) (int_range 0 9) (int_range 0 99);
          map (fun id -> Op_delete id) (int_range 0 9);
          map (fun id -> Op_update id) (int_range 0 9);
        ]
    in
    list_size (int_range 1 25)
      (frequency
         [
           5, base;
           2, map (fun l -> Op_txn l) (list_size (int_range 1 5) base);
           1, map (fun c -> Op_checkpoint c) bool;
         ]))

let gen_crash =
  QCheck2.Gen.(
    option
      (pair (int_range 1 30)
          (oneofl [ Crash_before_fsync; Crash_mid_frame; Short_write 5 ])))

let prop_crash_recovery =
  QCheck2.Test.make
    ~name:
      "crash recovery: no confirmed request lost, no torn state observable"
    ~count:60
    QCheck2.Gen.(triple (oneofl [ 0; 3 ]) gen_ops gen_crash)
    (fun (backends, ops, crash) ->
      let snap = Filename.temp_file "mldssnap" ".mlds" in
      let file = snap ^ ".wal" in
      let fake = Fake_fs.create () in
      let sys_a = Mlds.System.create ~backends ~fs:(Fake_fs.fs fake) () in
      (match Mlds.System.define_relational sys_a ~name:"crash" with
      | Ok () -> ()
      | Error msg -> failwith msg);
      let wal =
        match Mlds.System.attach_wal sys_a ~db:"crash" ~file with
        | Ok wal -> wal
        | Error msg -> failwith msg
      in
      (match crash with
      | Some (after, failure) -> arm_crash fake ~file ~after failure
      | None -> ());
      let kernel = Option.get (Mlds.System.kernel_of sys_a "crash") in
      (* the model holds exactly the requests the caller saw complete *)
      let model = Abdm.Store.create () in
      let upd =
        [ Abdm.Modifier.Set_arith ("v", Abdm.Modifier.Add, Abdm.Value.Int 100) ]
      in
      (* run one op through the kernel, recording the mirror actions to
         apply to the model only once the op is confirmed *)
      let exec_base op =
        match op with
        | Op_insert (id, v) ->
          let key = Mapping.Kernel.insert kernel (item id v) in
          fun () -> Abdm.Store.insert_keyed model key (item id v)
        | Op_delete id ->
          ignore (Mapping.Kernel.delete kernel (q_id id));
          fun () -> ignore (Abdm.Store.delete model (q_id id))
        | Op_update id ->
          ignore (Mapping.Kernel.update kernel (q_id id) upd);
          fun () -> ignore (Abdm.Store.update model (q_id id) upd)
        | Op_txn _ | Op_checkpoint _ -> assert false
      in
      let crashed = ref false in
      let run_op op =
        match op with
        | Op_checkpoint inject ->
          begin
            if inject then arm_checkpoint_window fake ~file;
            match Mlds.Persist.checkpoint sys_a ~db:"crash" ~file:snap with
            | Ok () | Error _ -> ()
            | exception Mlds.Wal.Crash _ -> crashed := true
          end
        | Op_txn sub_ops ->
          begin
            match
              Mapping.Kernel.atomically kernel (fun () ->
                  Ok (List.map exec_base sub_ops))
            with
            | Ok mirrors -> List.iter (fun m -> m ()) mirrors
            | Error _ -> ()
            | exception Mlds.Wal.Crash _ -> crashed := true
          end
        | base ->
          begin
            match exec_base base with
            | mirror -> mirror ()
            | exception Mlds.Wal.Crash _ -> crashed := true
          end
      in
      List.iter (fun op -> if not !crashed then run_op op) ops;
      if not !crashed then Mlds.Wal.close wal;
      (* the machine is dead; bring up a fresh system and recover — from
         the latest snapshot when one was checkpointed (its stamp must
         make replay skip the frames it covers), else from the log
         alone. [snap] starts empty, and a save replaces it whole, so a
         non-empty [snap] is a durable snapshot — also one whose
         checkpoint stopped between the save and the truncate. *)
      let did_checkpoint = (Unix.stat snap).Unix.st_size > 0 in
      let sys_b = Mlds.System.create ~backends () in
      let report =
        if did_checkpoint then
          match Mlds.Persist.load_report sys_b ~file:snap with
          | Ok outcome -> Option.get outcome.Mlds.Persist.recovery
          | Error msg -> failwith msg
        else begin
          (match Mlds.System.define_relational sys_b ~name:"crash" with
          | Ok () -> ()
          | Error msg -> failwith msg);
          match Mlds.Persist.replay_wal sys_b ~db:"crash" ~file with
          | Ok report -> report
          | Error msg -> failwith msg
        end
      in
      let recovered =
        state_of_kernel (Option.get (Mlds.System.kernel_of sys_b "crash"))
      in
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ file; snap; Mlds.Fs.temp_of file; Mlds.Fs.temp_of snap ];
      if recovered <> state_of_store model then
        QCheck2.Test.fail_reportf
          "recovered state differs from confirmed state\n\
           confirmed: %s\nrecovered: %s\nreport: %d frames, torn=%b"
          (String.concat "; "
             (List.map (fun (k, r) -> Printf.sprintf "%d=%s" k r)
                (state_of_store model)))
          (String.concat "; "
             (List.map (fun (k, r) -> Printf.sprintf "%d=%s" k r) recovered))
          report.Mlds.Persist.frames report.Mlds.Persist.torn
      else true)

(* --- the recovery trace artifact ------------------------------------------- *)

(* With MLDS_RECOVERY_TRACE set (the CI fault-injection job sets it), run a
   scripted crash + recovery with tracing on and write the mlds.recover
   span tree and the report to that file. *)
let test_recovery_trace_artifact () =
  let file = temp_wal () in
  let fake = Fake_fs.create () in
  let sys_a = Mlds.System.create ~fs:(Fake_fs.fs fake) () in
  (match Mlds.System.define_relational sys_a ~name:"traced" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  (match Mlds.System.attach_wal sys_a ~db:"traced" ~file with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let kernel = Option.get (Mlds.System.kernel_of sys_a "traced") in
  ignore (Mapping.Kernel.insert kernel (item 1 10));
  ignore (Mapping.Kernel.insert kernel (item 2 20));
  arm_crash fake ~file ~after:2 Crash_mid_frame;
  Alcotest.(check bool) "the kill point fired" true
    (match
       Mapping.Kernel.atomically kernel (fun () ->
           ignore (Mapping.Kernel.insert kernel (item 3 30));
           Ok ())
     with
    | exception Mlds.Wal.Crash _ -> true
    | _ -> false);
  let was_tracing = Obs.Span.enabled () in
  Obs.Span.set_enabled true;
  ignore (Obs.Span.take_roots ());
  let sys_b = Mlds.System.create () in
  (match Mlds.System.define_relational sys_b ~name:"traced" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let report =
    match Mlds.Persist.replay_wal sys_b ~db:"traced" ~file with
    | Ok report -> report
    | Error msg -> failwith msg
  in
  let spans =
    Obs.Span.take_roots () |> List.map Obs.Export.span_tree |> String.concat ""
  in
  Obs.Span.set_enabled was_tracing;
  Alcotest.(check int) "both confirmed inserts recovered" 2 report.applied;
  Alcotest.(check bool) "torn tail detected" true report.torn;
  Alcotest.(check bool) "recover span recorded" true
    (contains spans "mlds.recover");
  (match Sys.getenv_opt "MLDS_RECOVERY_TRACE" with
  | Some path when path <> "" ->
    let oc = open_out path in
    Printf.fprintf oc
      "MLDS fault-injection recovery trace\n\
       ===================================\n\
       wal file:        %s\n\
       frames recovered %d\n\
       torn tail        %b\n\
       applied          %d\n\
       dropped          %d\n\nspans:\n%s"
      report.wal_file report.frames report.torn report.applied report.dropped
      spans;
    close_out oc
  | _ -> ());
  Sys.remove file

let suite =
  [
    "crc32 known vector", `Quick, test_crc32_vector;
    QCheck_alcotest.to_alcotest prop_crc32_sliced_is_bytewise;
    "entry encode/decode roundtrip", `Quick, test_entry_roundtrip;
    "append and recover", `Quick, test_append_recover;
    "recover missing and empty logs", `Quick, test_recover_missing_and_empty;
    "recover stops at a corrupt tail", `Quick, test_recover_corrupt_tail;
    "failpoint: crash mid-frame", `Quick, test_crash_mid_frame;
    "failpoint: short write", `Quick, test_short_write;
    "failpoint: crash before fsync", `Quick, test_crash_before_fsync;
    "truncate and the fsync knob", `Quick, test_truncate_and_fsync_knob;
    "generation markers and positions", `Quick, test_generation_and_position;
    "truncate_to keeps the tail", `Quick, test_truncate_to_keeps_tail;
    "truncate crash window leaves no stale .swap", `Quick,
    test_truncate_crash_leaves_no_swap;
    "truncate_to after a failed replace", `Quick,
    test_truncate_to_failed_replace;
    "skip drops snapshot-covered frames", `Quick, test_skip_stale_frames;
    "trim cuts a torn tail", `Quick, test_trim_torn_tail;
    "float frames replay exactly", `Quick, test_float_frames_replay_exactly;
    "checkpoint crash window: no double-apply", `Quick,
    test_checkpoint_crash_window;
    "incremental checkpoint in slices", `Quick,
    test_incremental_checkpoint_slices;
    "sync skips the syscall when clean", `Quick, test_sync_skips_when_clean;
    "group commit: one covering fsync", `Quick, test_group_commit_single_fsync;
    QCheck_alcotest.to_alcotest prop_group_commit_crash;
    "failpoint: fsync EIO", `Quick, test_fsync_eio;
    "flusher releases what an fsync covered past its goal", `Quick,
    test_flusher_covers_past_goal;
    QCheck_alcotest.to_alcotest prop_pipelined_commit_crash;
    "recovery trace artifact", `Quick, test_recovery_trace_artifact;
    QCheck_alcotest.to_alcotest prop_crash_recovery;
  ]

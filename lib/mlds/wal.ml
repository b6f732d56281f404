exception Crash of string

type entry =
  | Begin
  | Commit
  | Abort
  | Keyed_insert of Abdm.Store.dbkey * Abdm.Record.t
  | Replace of Abdm.Store.dbkey * Abdm.Record.t
  | Request of Abdl.Ast.request
  | Generation of int

(* One thread appends (the executor) while another fsyncs (a flusher):
   [mx] guards every field both of them touch. The fsync syscall itself
   runs outside the lock. *)
type t = {
  wal_path : string;
  fs : Fs.t;
  mx : Mutex.t;
  mutable fd : Fs.fd option;  (* None once closed *)
  do_fsync : bool;
  mutable len : int;  (* bytes written to the OS *)
  mutable commit_len : int;  (* [len] at the last commit point *)
  mutable synced_len : int;  (* bytes known durable (last fsync) *)
  mutable appends : int;
  mutable fsyncs : int;  (* real fsync syscalls issued by this handle *)
  mutable grouping : bool;  (* inside begin_group..leave_group *)
  mutable deferred_syncs : int;  (* commit points not yet covered by a fsync *)
  mutable generation : int;  (* bumped by every truncate; 0 for a virgin log *)
  mutable last_trunc : (int * int * int) option;
      (* (new_gen, keep_from, base): the most recent truncation's
         coordinate map — old-log offset [keep_from] became offset [base]
         in generation [new_gen]. The replication shipper uses it to
         remap a standby's position across a checkpoint truncation. *)
}

(* observability: shared instruments in the process-wide registry *)
let h_append = Obs.Metrics.histogram "wal.append_s"

let h_fsync = Obs.Metrics.histogram "wal.fsync_s"

let h_group = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "wal.group_commit_size"

let c_recovered = Obs.Metrics.counter "wal.recovered_frames"

let c_torn = Obs.Metrics.counter "wal.torn_tail"

let c_trim_failed = Obs.Metrics.counter "wal.trim_failed"

let c_stale_swap = Obs.Metrics.counter "wal.stale_swap_removed"

(* current log length in bytes — the checkpoint trigger's signal. One
   process-wide gauge: with several logs attached it tracks the one that
   wrote last, which is the single-database server's common case. *)
let g_bytes = Obs.Metrics.gauge "wal.bytes"

(* --- CRC-32 (IEEE, the zlib polynomial) --------------------------------- *)

(* Slice-by-8 (Kounavis & Berry, ISCC 2005): table [k] (entries
   [256k .. 256k + 255]) is the CRC of a byte followed by [k] zero
   bytes, so one step folds 8 input bytes with 8 lookups. Table 0 is the
   byte-wise table. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
         else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.((256 * (k - 1)) + n) in
         t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

let byte b i = Char.code (Bytes.unsafe_get b i)

let crc32_update crc b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Wal.crc32_update";
  let t = Lazy.force crc_tables in
  let c = ref (crc lxor 0xFFFFFFFF) and p = ref pos in
  let sliced = pos + (len land lnot 7) in
  while !p < sliced do
    let i = !p and x = !c in
    c :=
      Array.unsafe_get t ((7 * 256) + ((x lxor byte b i) land 0xFF))
      lxor Array.unsafe_get t
             ((6 * 256) + (((x lsr 8) lxor byte b (i + 1)) land 0xFF))
      lxor Array.unsafe_get t
             ((5 * 256) + (((x lsr 16) lxor byte b (i + 2)) land 0xFF))
      lxor Array.unsafe_get t ((4 * 256) + ((x lsr 24) lxor byte b (i + 3)))
      lxor Array.unsafe_get t ((3 * 256) + byte b (i + 4))
      lxor Array.unsafe_get t ((2 * 256) + byte b (i + 5))
      lxor Array.unsafe_get t (256 + byte b (i + 6))
      lxor Array.unsafe_get t (byte b (i + 7));
    p := i + 8
  done;
  (* the tail, byte by byte *)
  for i = sliced to pos + len - 1 do
    c := Array.unsafe_get t ((!c lxor byte b i) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_bytes b ~pos ~len = crc32_update 0 b ~pos ~len

let crc32 s =
  crc32_bytes (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

(* --- entry encoding ------------------------------------------------------ *)

let keyed_payload tag key record =
  let buf = Buffer.create 256 in
  Buffer.add_string buf tag;
  Buffer.add_string buf (string_of_int key);
  Buffer.add_char buf ' ';
  Abdl.Ast.to_buffer buf (Abdl.Ast.Insert record);
  Buffer.contents buf

let encode_entry = function
  | Begin -> "BEGIN"
  | Commit -> "COMMIT"
  | Abort -> "ABORT"
  | Keyed_insert (key, record) -> keyed_payload "KEYED " key record
  | Replace (key, record) -> keyed_payload "REPLACE " key record
  | Request request -> Abdl.Ast.to_string request
  | Generation g -> "GENERATION " ^ string_of_int g

let decode_keyed payload ~tag ~make =
  (* "<tag> <key> INSERT (...)" *)
  let plen = String.length payload and tlen = String.length tag + 1 in
  match String.index_from_opt payload tlen ' ' with
  | None -> Error (Printf.sprintf "truncated %s entry" tag)
  | Some sp ->
    match int_of_string_opt (String.sub payload tlen (sp - tlen)) with
    | None -> Error (Printf.sprintf "bad key in %s entry" tag)
    | Some key ->
      let rest = String.sub payload (sp + 1) (plen - sp - 1) in
      match Abdl.Parser.request rest with
      | Abdl.Ast.Insert record -> Ok (make key record)
      | _ -> Error (Printf.sprintf "%s entry does not carry an INSERT" tag)
      | exception Abdl.Parser.Parse_error msg ->
        Error (Printf.sprintf "bad record in %s entry: %s" tag msg)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal prefix (String.sub s 0 (String.length prefix))

let decode_entry payload =
  match payload with
  | "BEGIN" -> Ok Begin
  | "COMMIT" -> Ok Commit
  | "ABORT" -> Ok Abort
  | _ when starts_with "KEYED " payload ->
    decode_keyed payload ~tag:"KEYED" ~make:(fun k r -> Keyed_insert (k, r))
  | _ when starts_with "REPLACE " payload ->
    decode_keyed payload ~tag:"REPLACE" ~make:(fun k r -> Replace (k, r))
  | _ when starts_with "GENERATION " payload ->
    (match int_of_string_opt (String.sub payload 11 (String.length payload - 11)) with
    | Some g -> Ok (Generation g)
    | None -> Error "bad GENERATION entry")
  | _ ->
    match Abdl.Parser.request payload with
    | request -> Ok (Request request)
    | exception Abdl.Parser.Parse_error msg ->
      Error (Printf.sprintf "bad WAL entry: %s" msg)

(* --- frames -------------------------------------------------------------- *)

let frame_of_payload payload =
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set_int32_be b 4 (Int32.of_int (crc32 payload));
  Bytes.blit_string payload 0 b 8 n;
  b

(* One frame's on-disk bytes — the standby uses it to append a synthetic
   ABORT closing a replicated transaction the dead primary never finished. *)
let encode_frame entry = frame_of_payload (encode_entry entry)

let max_frame_payload = 1 lsl 24 (* 16 MiB: anything larger is corruption *)

(* --- the writing handle -------------------------------------------------- *)

(* The generation an existing log belongs to: the marker frame every
   truncate writes first. A log that starts with anything else (including
   a pre-generation log, or an empty file) is generation 0. *)
let read_generation path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = Bytes.create 8 in
        match really_input ic header 0 8 with
        | exception End_of_file -> 0
        | () ->
          let plen = Int32.to_int (Bytes.get_int32_be header 0) in
          let crc = Int32.to_int (Bytes.get_int32_be header 4) land 0xFFFFFFFF in
          if plen < 1 || plen > max_frame_payload then 0
          else
            match really_input_string ic plen with
            | exception End_of_file -> 0
            | payload ->
              if crc32 payload <> crc then 0
              else
                match decode_entry payload with
                | Ok (Generation g) -> g
                | Ok _ | Error _ -> 0)
  end

let open_log ?(fs = Fs.unix) ?(fsync = true) path =
  (* A crash inside truncate_to's replace, before its rename, leaves the
     complete old log in place with an orphaned temp file beside it. The
     old log is the truth (the rename never happened), so the orphan is
     dead weight: sweep it now rather than leave it until the next
     truncation overwrites it. *)
  let orphan = Fs.temp_of path in
  if Sys.file_exists orphan then begin
    fs.Fs.remove orphan;
    Obs.Metrics.incr c_stale_swap
  end;
  let generation = read_generation path in
  let fd = Fs.create fs path in
  let len = (Unix.fstat fd.Fs.descr).Unix.st_size in
  Obs.Metrics.set_gauge g_bytes (float_of_int len);
  {
    wal_path = path;
    fs;
    mx = Mutex.create ();
    fd = Some fd;
    do_fsync = fsync;
    len;
    commit_len = len;
    synced_len = len;
    appends = 0;
    fsyncs = 0;
    grouping = false;
    deferred_syncs = 0;
    generation;
    last_trunc = None;
  }

let path t = t.wal_path

let appended t = t.appends

let generation t = t.generation

(* Byte length of the log right now: the position a snapshot taken at
   this instant covers. Frames at offsets below it are pre-snapshot. *)
let position t = t.len

let committed_position t = t.commit_len

(* Bytes known durable — the replication shipper streams up to here and
   no further, so a standby never holds frames the primary could lose. *)
let synced_position t = t.synced_len

let last_truncation t = t.last_trunc

let fsync_enabled t = t.do_fsync

let live t =
  match t.fd with
  | Some fd -> fd
  | None -> raise (Crash (Printf.sprintf "WAL %s: handle is dead" t.wal_path))

let append t entry =
  Mutex.protect t.mx @@ fun () ->
  let fd = live t in
  t.appends <- t.appends + 1;
  let frame = frame_of_payload (encode_entry entry) in
  let t0 = Obs.Clock.now_s () in
  Fs.write_all t.fs fd frame 0 (Bytes.length frame);
  t.len <- t.len + Bytes.length frame;
  Obs.Metrics.set_gauge g_bytes (float_of_int t.len);
  Obs.Metrics.observe h_append (Obs.Clock.since t0)

(* Make at least the first [pos] bytes durable. Safe while another
   thread appends: the descriptor and the length to cover are read under
   the lock, the fsync runs outside it, and [synced_len] advances only if
   the handle survived the call. Nothing is issued when [pos] is already
   durable — an fsync with nothing new to cover is a wasted syscall that
   would show up directly in wal.fsync_s. *)
let sync_to t pos =
  let job =
    Mutex.protect t.mx (fun () ->
        let fd = live t in
        if (not t.do_fsync) || t.synced_len >= pos then None
        else Some (fd, t.len, t.deferred_syncs))
  in
  match job with
  | None -> ()
  | Some (fd, upto, covered) ->
    let t0 = Obs.Clock.now_s () in
    t.fs.Fs.fsync fd;
    Mutex.protect t.mx (fun () ->
        (* a handle that died meanwhile has lost its unsynced tail *)
        ignore (live t);
        t.fsyncs <- t.fsyncs + 1;
        t.synced_len <- Stdlib.max t.synced_len upto;
        t.deferred_syncs <- Stdlib.max 0 (t.deferred_syncs - covered));
    Obs.Metrics.observe h_fsync (Obs.Clock.since t0);
    if covered > 0 then Obs.Metrics.observe h_group (float_of_int covered)

let sync t =
  let now =
    Mutex.protect t.mx (fun () ->
        ignore (live t);
        t.commit_len <- t.len;
        (* group commit: remember that a commit point passed; the
           covering fsync comes later, and acks are withheld until then *)
        if t.grouping && t.do_fsync && t.len > t.synced_len then
          t.deferred_syncs <- t.deferred_syncs + 1;
        not t.grouping)
  in
  if now then sync_to t t.commit_len

let fsyncs t = t.fsyncs

let begin_group t =
  ignore (live t);
  t.grouping <- true

let leave_group t = t.grouping <- false

let truncate_locked t =
  let fd = live t in
  let old_len = t.len in
  t.fs.Fs.ftruncate fd 0;
  (* start the next generation: the marker lets replay tell this log
     apart from the one a snapshot was stamped against *)
  t.generation <- t.generation + 1;
  let marker = frame_of_payload (encode_entry (Generation t.generation)) in
  Fs.write_all t.fs fd marker 0 (Bytes.length marker);
  t.last_trunc <- Some (t.generation, old_len, Bytes.length marker);
  t.len <- Bytes.length marker;
  t.commit_len <- t.len;
  t.synced_len <- t.len;
  t.deferred_syncs <- 0;
  t.fsyncs <- t.fsyncs + 1;
  t.fs.Fs.fsync fd;
  Obs.Metrics.set_gauge g_bytes (float_of_int t.len)

(* [read_range path ~pos ~len] reads exactly [len] bytes at offset [pos]
   by path (a fresh descriptor, so it never disturbs the writing handle).
   None when the file is missing or shorter than [pos + len] — for the
   replication shipper, a race with a truncation rename: it must
   re-resolve its position. *)
let read_range path ~pos ~len =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | rfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close rfd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lseek rfd pos Unix.SEEK_SET with
        | exception Unix.Unix_error _ -> None
        | _ ->
          let buf = Bytes.create len in
          let got = ref 0 in
          let short = ref false in
          while (not !short) && !got < len do
            match Unix.read rfd buf !got (len - !got) with
            | 0 -> short := true
            | n -> got := !got + n
            | exception Unix.Unix_error _ -> short := true
          done;
          if !short then None else Some (Bytes.unsafe_to_string buf))

(* Truncate to a checkpoint position while keeping the tail — the frames
   appended after the snapshot was captured. The replacement log (a
   next-generation marker, then the tail bytes) replaces the old one
   through [Fs.replace]. A crash at any point leaves either the complete
   old log (the stamped snapshot skips its first [keep_from] bytes on
   replay) or the complete new one (whose fresh generation defeats the
   stamp, so every surviving frame replays). *)
let truncate_to t ~keep_from =
  if t.grouping then invalid_arg "Wal.truncate_to: inside a commit group";
  Mutex.protect t.mx @@ fun () ->
  let fd = live t in
  if keep_from >= t.len then truncate_locked t
  else begin
    let gen = t.generation + 1 in
    let marker = Bytes.unsafe_to_string (encode_frame (Generation gen)) in
    let log =
      match read_range t.wal_path ~pos:keep_from ~len:(t.len - keep_from) with
      | Some tail -> marker ^ tail
      | None -> raise (Crash "WAL tail vanished during truncate")
    in
    (* Once the replace has renamed over the log, [fd] is on the unlinked
       old file, where appends would be acked and then lost: the handle
       is dead until the new log is open, and stays dead if the replace
       fails after its rename (in the directory fsync). Failing before
       it, the replace leaves the old log in place, and the handle too. *)
    let drop () =
      (try t.fs.Fs.close fd with Unix.Unix_error _ -> ());
      t.fd <- None
    in
    (match Fs.replace t.fs ~file:t.wal_path log with
    | () -> drop ()
    | exception e when (Unix.fstat fd.Fs.descr).Unix.st_nlink > 0 -> raise e
    | exception e ->
      drop ();
      raise e);
    t.fd <- Some (Fs.create t.fs t.wal_path);
    let len = String.length log in
    t.last_trunc <- Some (gen, keep_from, String.length marker);
    t.generation <- gen;
    t.len <- len;
    t.commit_len <- len;
    t.synced_len <- len;
    t.deferred_syncs <- 0;
    t.fsyncs <- t.fsyncs + 1;
    Obs.Metrics.set_gauge g_bytes (float_of_int len)
  end

let close t =
  Mutex.protect t.mx @@ fun () ->
  match t.fd with
  | None -> ()
  | Some fd ->
    (try t.fs.Fs.fsync fd with Unix.Unix_error _ | Crash _ -> ());
    (try t.fs.Fs.close fd with Unix.Unix_error _ -> ());
    t.fd <- None

(* --- tailing (the replication shipper's read side) ----------------------- *)

(* [decode_frames data] walks [data] as a sequence of complete frames and
   decodes every payload. None unless the bytes are exactly a whole
   number of valid frames — the shipper's alignment check: a chunk read
   that raced a truncation rename lands at a foreign offset and fails
   the walk (or the CRC) with overwhelming probability. *)
let decode_frames data =
  let total = String.length data in
  let rec loop off acc =
    if off = total then Some (List.rev acc)
    else if total - off < 8 then None
    else begin
      let plen = Int32.to_int (String.get_int32_be data off) in
      let crc = Int32.to_int (String.get_int32_be data (off + 4)) land 0xFFFFFFFF in
      if plen < 1 || plen > max_frame_payload || total - off - 8 < plen then None
      else
        let payload = String.sub data (off + 8) plen in
        if crc32 payload <> crc then None
        else
          match decode_entry payload with
          | Error _ -> None
          | Ok entry -> loop (off + 8 + plen) (entry :: acc)
    end
  in
  loop 0 []

(* --- recovery ------------------------------------------------------------ *)

type recovery = {
  entries : entry list;
  frames : int;
  torn : bool;
  valid_bytes : int;
  gen : int;
  skipped : int;
  trimmed : bool;
  trim_failed : bool;
}

let recover ?(trim = false) ?skip path =
  if not (Sys.file_exists path) then
    { entries = []; frames = 0; torn = false; valid_bytes = 0; gen = 0;
      skipped = 0; trimmed = false; trim_failed = false }
  else begin
    let ic = open_in_bin path in
    let result =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          let header = Bytes.create 8 in
          let entries = ref [] in
          let frames = ref 0 in
          let valid = ref 0 in
          let torn = ref false in
          let gen = ref 0 in
          let skipped = ref 0 in
          (* Generation markers are log metadata, not workload: they are
             never returned as entries. A data frame is stale — skipped —
             when a [skip] stamp from a snapshot matches this log's
             generation and the frame ends within the stamped prefix. *)
          let keep entry ~frame_end =
            match entry with
            | Generation g -> gen := g
            | _ ->
              let stale =
                match skip with
                | Some (sgen, spos) -> !gen = sgen && frame_end <= spos
                | None -> false
              in
              if stale then incr skipped
              else begin
                entries := entry :: !entries;
                incr frames
              end
          in
          let rec loop () =
            if !valid < total then begin
              match really_input ic header 0 8 with
              | exception End_of_file -> torn := true
              | () ->
                let plen = Int32.to_int (Bytes.get_int32_be header 0) in
                let crc = Int32.to_int (Bytes.get_int32_be header 4) land 0xFFFFFFFF in
                if plen < 1 || plen > max_frame_payload then torn := true
                else begin
                  match really_input_string ic plen with
                  | exception End_of_file -> torn := true
                  | payload ->
                    if crc32 payload <> crc then torn := true
                    else
                      match decode_entry payload with
                      | Error _ -> torn := true
                      | Ok entry ->
                        valid := !valid + 8 + plen;
                        keep entry ~frame_end:!valid;
                        loop ()
                end
            end
          in
          loop ();
          Obs.Metrics.incr ~by:!frames c_recovered;
          if !torn then Obs.Metrics.incr c_torn;
          {
            entries = List.rev !entries;
            frames = !frames;
            torn = !torn;
            valid_bytes = !valid;
            gen = !gen;
            skipped = !skipped;
            trimmed = false;
            trim_failed = false;
          })
    in
    (* A torn tail means bytes past [valid_bytes] are garbage. Appending
       after them would leave frames recovery can never reach, so the
       caller may ask us to cut the file back to its valid prefix — and
       if the cut fails we must say so rather than pretend. *)
    if result.torn && trim then begin
      match Unix.truncate path result.valid_bytes with
      | () -> { result with trimmed = true }
      | exception Unix.Unix_error _ ->
        Obs.Metrics.incr c_trim_failed;
        { result with trim_failed = true }
    end
    else result
  end

(* Crash recovery as the benchmark measures it: rebuild every database
   from <dir>/<db>.wal.snapshot (the preload snapshot, or the latest online
   checkpoint) plus the committed prefix of <dir>/<db>.wal. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* the snapshot's "%WAL gen=G pos=P" stamp: WAL frames it already covers *)
let wal_stamp text =
  List.find_map
    (fun l -> try Some (Scanf.sscanf l "%%WAL gen=%d pos=%d" (fun g p -> g, p)) with _ -> None)
    (String.split_on_char '\n' (String.sub text 0 (min 4096 (String.length text))))

(* Returns the rebuilt system, the WAL frames replayed, and the seconds
   spent replaying them. *)
let recover ~dir dbs =
  let sys = Mlds.System.create () in
  let frames = ref 0 and replay_s = ref 0. in
  List.iter
    (fun db ->
      let wal = Filename.concat dir (db ^ ".wal") in
      let text = read_file (wal ^ ".snapshot") in
      (match Mlds.Persist.restore sys ~text with
      | Ok () -> ()
      | Error e -> failwith (Printf.sprintf "restore %s: %s" db e));
      let t0 = Unix.gettimeofday () in
      (match Mlds.Persist.replay_wal ?skip:(wal_stamp text) sys ~db ~file:wal with
      | Ok r -> frames := !frames + r.Mlds.Persist.frames
      | Error e -> failwith (Printf.sprintf "replay %s: %s" db e));
      replay_s := !replay_s +. (Unix.gettimeofday () -. t0))
    dbs;
  sys, !frames, !replay_s

(* The server process under test, and the process that recovers it.

   mldsb_server.exe serve WORKLOAD SEED DIR
     Preloads the workload's databases, snapshots each one, attaches an
     fsync'd WAL to every database, and serves on an ephemeral port with
     the stock [Server.Core.default_config]. Prints "ready <port>" once
     listening, then runs until killed.

   mldsb_server.exe recover DIR DB...
     Rebuilds every DB from its snapshot and WAL in DIR, as a fresh process
     after a crash would, prints "recovered <frames> <replay seconds>" and
     exits. *)

open Perfbench

let serve wname seed dir =
  let w =
    match Workloads.of_name wname with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ wname)
  in
  let sys = Workloads.create_system w in
  Workloads.preload w ~seed:(int_of_string seed) sys;
  List.iter
    (fun (db, _model) ->
      let wal = Filename.concat dir (db ^ ".wal") in
      (* the recovery base: online checkpoints overwrite <wal>.snapshot *)
      (match Mlds.Persist.save sys ~db ~file:(wal ^ ".snapshot") with
      | Ok () -> ()
      | Error e -> failwith ("snapshot: " ^ e));
      match Mlds.System.attach_wal sys ~db ~file:wal with
      | Ok _ -> ()
      | Error e -> failwith ("attach_wal: " ^ e))
    (Mlds.System.databases sys);
  let config = { Server.Core.default_config with port = 0 } in
  match Server.Core.create ~config sys with
  | Error e -> failwith ("server: " ^ e)
  | Ok server ->
    Printf.printf "ready %d\n%!" (Server.Core.port server);
    while true do
      Unix.sleep 3600
    done

let () =
  match Array.to_list Sys.argv with
  | [ _; "serve"; wname; seed; dir ] -> serve wname seed dir
  | _ :: "recover" :: dir :: (_ :: _ as dbs) ->
    let _, frames, replay_s = Recovery.recover ~dir dbs in
    Printf.printf "recovered %d %.9f\n%!" frames replay_s
  | _ ->
    prerr_endline "usage: mldsb_server.exe serve WORKLOAD SEED DIR | recover DIR DB...";
    exit 2

(* Wiring. [Server.Core] knows nothing about replication beyond its
   optional hooks and the stream record its I/O loop drives; [Ship]
   knows the server only through an inject function, a wake function and
   that record, and [Standby] through an inject function. This module
   ties the knots — once for a primary (shipping enabled the moment a
   WAL is attached: every standby becomes a stream on the primary's I/O
   loop, with no thread of its own), once for a standby (read-only core
   + its one stream thread + a promote hook that waits for nothing).
   The server binary and the in-process tests both go through here, so
   the drill the tests run is the wiring production runs. *)

(* [enable_primary core ~system ~db] turns [core] into a replication
   source for [db]'s attached WAL. Standbys connect by sending
   [Repl_hello] on an ordinary client connection. Returns the shipper
   (shut it down BEFORE any shutdown-time checkpoint truncates the WAL),
   or [None] when [db] has no WAL — nothing durable to ship. *)
let enable_primary core ~system ~db =
  match Mlds.System.wal_of system ~db with
  | None -> None
  | Some wal ->
    let ship =
      Ship.create ~wal
        ~snapshot:(fun () -> Mlds.Persist.dump system ~db)
        ~inject:(Server.Core.inject core)
        ~wake:(fun () -> Server.Core.wake core)
    in
    Server.Core.set_durability_hook core (Some (fun () -> Ship.publish ship));
    Server.Core.set_truncate_fence core (Some (Ship.fence ship));
    Server.Core.set_repl_hello core (Some (Ship.attach ship));
    Some ship

(* [start_standby core ~system ~db ~wal_path ~host ~port] puts [core] in
   read-only mode, starts streaming from the primary at [host]:[port],
   and installs the promote hook ([Promote] over the wire and, through
   [Server.Core.promote], the binary's SIGUSR1). Promotion finishes
   applying everything received, seals the log, attaches it for
   primary-mode logging, and lifts read-only, all on the executor; the
   I/O loop only starts it. *)
let start_standby core ~system ~db ~wal_path ~host ~port =
  Server.Core.set_read_only core true;
  let standby =
    Standby.start ~system ~db ~wal_path ~host ~port
      ~inject:(Server.Core.inject core) ()
  in
  Server.Core.set_promote_hook core
    (Some
       (fun k ->
         Standby.promote_then standby (fun result ->
             if Result.is_ok result then Server.Core.set_read_only core false;
             k result)));
  standby

type t = {
  wal : Mlds.Wal.t;
  on_durable : unit -> unit;
  mx : Mutex.t;
  cond : Condition.t;
  mutable durable : int;  (* every position <= this is durable *)
  mutable target : int;  (* the highest position requested *)
  mutable busy : bool;  (* an fsync is in flight *)
  mutable stopping : bool;
  mutable waiters : (int * (string option -> unit)) list;  (* newest first *)
  mutable thread : Thread.t option;
}

let wal t = t.wal

let request t pos =
  Mutex.protect t.mx (fun () ->
      if pos > t.target then begin
        t.target <- pos;
        Condition.broadcast t.cond
      end)

let durable t pos = Mutex.protect t.mx (fun () -> pos <= t.durable)

let when_durable t pos k =
  let now =
    Mutex.protect t.mx (fun () ->
        pos <= t.durable
        || begin
             t.waiters <- (pos, k) :: t.waiters;
             false
           end)
  in
  if now then k None

(* One round: a single fsync up to [goal], then settle the waiters it
   covers — released on success (everything the fsync made durable, which
   may reach past [goal]), failed on error (everything up to [goal]).
   Waiters that registered during the fsync are covered too: their bytes
   were written before the position they wait for was reached. *)
let flush_once t goal =
  let outcome =
    match Mlds.Wal.sync_to t.wal goal with
    | () -> None
    | exception Mlds.Wal.Crash msg -> Some msg
    | exception Unix.Unix_error (e, fn, _) ->
      Some (fn ^ ": " ^ Unix.error_message e)
  in
  let settled =
    Mutex.protect t.mx (fun () ->
        let bound =
          match outcome with
          | None ->
            (* the log owes no fsync for what this one covered past
               [goal]: a waiter for it must settle now or never *)
            t.durable <-
              Stdlib.max t.durable
                (Stdlib.max goal (Mlds.Wal.synced_position t.wal));
            t.durable
          | Some _ ->
            (* forget a failed request so a later one retries it *)
            if t.target = goal then t.target <- t.durable;
            goal
        in
        let covered, rest =
          List.partition (fun (pos, _) -> pos <= bound) t.waiters
        in
        t.waiters <- rest;
        List.rev covered)
  in
  if outcome = None then t.on_durable ();
  let outcome =
    Option.map
      (fun why ->
        Printf.sprintf "WAL %s: covering fsync failed: %s"
          (Mlds.Wal.path t.wal) why)
      outcome
  in
  List.iter (fun (_, k) -> try k outcome with _ -> ()) settled

let rec loop t =
  let goal =
    Mutex.protect t.mx (fun () ->
        while t.target <= t.durable && not t.stopping do
          Condition.wait t.cond t.mx
        done;
        if t.target <= t.durable then None
        else begin
          t.busy <- true;
          Some t.target
        end)
  in
  match goal with
  | None -> ()  (* stopping, nothing left to flush *)
  | Some goal ->
    flush_once t goal;
    Mutex.protect t.mx (fun () ->
        t.busy <- false;
        Condition.broadcast t.cond);
    loop t

let create ~on_durable wal =
  let synced = Mlds.Wal.synced_position wal in
  let t =
    {
      wal;
      on_durable;
      mx = Mutex.create ();
      cond = Condition.create ();
      durable = synced;
      target = synced;
      busy = false;
      stopping = false;
      waiters = [];
      thread = None;
    }
  in
  t.thread <- Some (Thread.create loop t);
  t

let drain t =
  Mutex.protect t.mx (fun () ->
      while t.busy || t.target > t.durable do
        Condition.wait t.cond t.mx
      done)

let stop t =
  Mutex.protect t.mx (fun () ->
      t.stopping <- true;
      Condition.broadcast t.cond);
  Option.iter Thread.join t.thread

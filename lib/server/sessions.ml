type entry = {
  id : int;
  handle : Mlds.System.handle;
  conn : int;
  mutable last_active : float;
}

type t = {
  sys : Mlds.System.t;
  tbl : (int, entry) Hashtbl.t;
  (* mirrors [Hashtbl.length tbl]; atomically readable from any thread
     (the binary's status line, tests polling for disconnect cleanup)
     while the table itself stays executor-only *)
  count : int Atomic.t;
}

let g_active = Obs.Metrics.gauge "server.sessions_active"

let c_reaped = Obs.Metrics.counter "server.reaped_total"

let create sys = { sys; tbl = Hashtbl.create 32; count = Atomic.make 0 }

let system t = t.sys

let active t = Atomic.get t.count

let set_gauge t = Obs.Metrics.set_gauge g_active (float_of_int (active t))

let login t ~conn ~user ~language ~db =
  match Mlds.System.language_of_string language with
  | None -> Error (Printf.sprintf "unknown language %S" language)
  | Some lang ->
    match Mlds.System.open_handle ~user t.sys lang ~db with
    | Error _ as e -> e
    | Ok handle ->
      let entry =
        {
          id = Mlds.System.handle_id handle;
          handle;
          conn;
          last_active = Unix.gettimeofday ();
        }
      in
      Hashtbl.replace t.tbl entry.id entry;
      Atomic.incr t.count;
      set_gauge t;
      Ok entry

let find t id = Hashtbl.find_opt t.tbl id

let touch entry = entry.last_active <- Unix.gettimeofday ()

let close t entry =
  if Hashtbl.mem t.tbl entry.id then begin
    Hashtbl.remove t.tbl entry.id;
    Atomic.decr t.count;
    Mlds.System.close_handle entry.handle;
    set_gauge t
  end

let entries t = Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []

let close_conn t ~conn =
  List.iter (fun e -> if e.conn = conn then close t e) (entries t)

let close_all t = List.iter (close t) (entries t)

type summary = {
  sum_id : int;
  sum_conn : int;
  sum_user : string;
  sum_language : string;
  sum_db : string;
  sum_idle_s : float;
}

let summaries t ~now =
  entries t
  |> List.map (fun e ->
         {
           sum_id = e.id;
           sum_conn = e.conn;
           sum_user = Mlds.System.handle_user e.handle;
           sum_language =
             Mlds.System.language_to_string
               (Mlds.System.handle_language e.handle);
           sum_db = Mlds.System.handle_db e.handle;
           sum_idle_s = Float.max 0. (now -. e.last_active);
         })
  |> List.sort (fun a b -> compare a.sum_id b.sum_id)

let reap_idle t ~now ~idle_timeout_s =
  let reaped = ref 0 in
  List.iter
    (fun e ->
      if now -. e.last_active > idle_timeout_s then begin
        close t e;
        incr reaped
      end)
    (entries t);
  if !reaped > 0 then Obs.Metrics.incr ~by:!reaped c_reaped;
  !reaped

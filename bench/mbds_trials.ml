(* The probe of the MBDS claim experiments (E1, E2, E9 and E11 of
   bench/main.exe, and examples/mbds_scaling.exe):
   a range RETRIEVE over [records] employees that matches the last four,
   so each backend scans its whole partition and returns a constant-size
   response — the workload the paper's claims assume. It names no FILE,
   so each backend plans a scan of its store and builds no index: every
   trial on one controller scans the whole partitions again. *)

let employee_record i =
  Abdm.Record.make
    [
      Abdm.Keyword.file "employee";
      Abdm.Keyword.make "name" (Abdm.Value.Str (Printf.sprintf "e%d" i));
      Abdm.Keyword.make "salary" (Abdm.Value.Int (i * 10));
    ]

let scan_probe records =
  Abdl.Parser.request
    (Printf.sprintf "RETRIEVE ((salary > %d)) (name)" ((records - 5) * 10))

(* One request on [c]: its modelled seconds (the paper's cost model over
   the work the backend counters saw during the call, and the rows
   returned) and its measured wall-clock seconds. *)
let modelled_run c q =
  let before = Mbds.Controller.backend_loads c in
  let t0 = Obs.Clock.now_s () in
  let result = Mbds.Controller.run c q in
  let measured = Obs.Clock.since t0 in
  let rows =
    match result with Abdl.Exec.Rows rows -> List.length rows | _ -> 0
  in
  ( Mbds.Cost.of_loads Mbds.Cost.default ~before
      ~after:(Mbds.Controller.backend_loads c) ~results:rows,
    measured )

(* [backends] fresh backends holding employees [0, records) *)
let load ?placement ~backends records =
  let c = Mbds.Controller.create ?placement backends in
  for i = 0 to records - 1 do
    ignore (Mbds.Controller.insert c (employee_record i))
  done;
  c

(* [trials] runs of [probe records] (by default {!scan_probe}) on one
   controller of [backends] backends placed by [placement], (modelled,
   measured) seconds each. *)
let run ?placement ?(probe = scan_probe) ~backends ~records ~trials () =
  let c = load ?placement ~backends records in
  let q = probe records in
  List.init trials (fun _ -> modelled_run c q)

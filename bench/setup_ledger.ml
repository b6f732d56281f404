(* The start-up stage ledger: where a perfbench server start spends its
   set-up, phase by phase, in one process and without a server.

   usage: setup_ledger.exe [WORKLOAD] [SEED] [RUNS]   (default oltp-point 1 7)

   Each run builds the workload's system as mldsb_server does: the
   preload (for oltp-point, the functional loader of the 3000-person
   university, then the SQL and DL/I scripts), then a snapshot save of
   every database. The loader is also timed alone, in a system of its
   own, so the preload's other work is the preload minus the loader.
   Prints the median wall time of each phase over RUNS runs, its
   minor-heap words (from the last run; allocation does not vary between
   runs) in total and per record, its minor collections (each one stops
   every running domain, an idle pool worker included), its MBDS
   broadcast shares (also from the last run): the growth of
   mbds.shares_inline + mbds.shares_remote, one per backend per
   broadcast, and the live words a record keeps once the phase is done:
   everything the database's kernel reaches (Obj.reachable_words:
   records, shapes, maps, index postings) over its records, summed over
   the databases for the whole preload. Then one more preload, traced and apart from the timed
   runs (which stay untraced): the self time of each span name it opened
   (lil.parse, kms.translate+kc.execute, kernel.run, mbds.insert,
   kfs.format, ...), the time inside a span less its children's, which
   shows the stage a set-up gain came from. Ends with
   pool.workers_started, the worker domains the whole ledger spawned: a
   start-up that broadcasts shows there. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let shares () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "mbds.shares_inline")
  + Obs.Metrics.counter_value (Obs.Metrics.counter "mbds.shares_remote")

let minor_collections () = (Gc.quick_stat ()).minor_collections

(* wall seconds, minor words, minor collections and broadcast shares of
   [f ()] *)
let measure f =
  let s0 = shares () and c0 = minor_collections () in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  r, (dt, Gc.minor_words () -. w0, minor_collections () - c0, shares () - s0)

let ok what = function Ok x -> x | Error e -> failwith (what ^ ": " ^ e)

let () =
  let arg i default = if Array.length Sys.argv > i then Sys.argv.(i) else default in
  let wname = arg 1 "oltp-point" in
  let seed = int_of_string (arg 2 "1") and runs = int_of_string (arg 3 "7") in
  let w =
    match Perfbench.Workloads.of_name wname with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ wname)
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ledger-%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o755;
  (* phase name -> (seconds of each run, words, minor collections and
     shares of the last, records, live words of the last) *)
  let phases = Hashtbl.create 8 and order = ref [] in
  let note name (dt, words, collections, shares) records live =
    let times, _, _, _, _, _ =
      Option.value ~default:([], 0., 0, 0, 0, 0) (Hashtbl.find_opt phases name)
    in
    if not (Hashtbl.mem phases name) then order := name :: !order;
    Hashtbl.replace phases name (dt :: times, words, collections, shares, records, live)
  in
  let kernel_words sys db =
    Obj.reachable_words (Obj.repr (Option.get (Mlds.System.kernel_of sys db)))
  in
  for _ = 1 to runs do
    Gc.compact ();
    (if w = Perfbench.Workloads.Oltp_point then
       let rows = Perfbench.Workloads.university_rows ~seed in
       let sys = Perfbench.Workloads.create_system w in
       let (), m =
         measure (fun () ->
             ok "loader"
               (Mlds.System.define_functional sys ~name:"uni"
                  ~ddl:Daplex.University.ddl rows))
       in
       note "loader (uni)" m
         (Mapping.Kernel.size (Option.get (Mlds.System.kernel_of sys "uni")))
         (kernel_words sys "uni"));
    Gc.compact ();
    let sys = Perfbench.Workloads.create_system w in
    let (), m = measure (fun () -> Perfbench.Workloads.preload w ~seed sys) in
    let size db = Mapping.Kernel.size (Option.get (Mlds.System.kernel_of sys db)) in
    let dbs = List.map fst (Mlds.System.databases sys) in
    note "preload (all)" m
      (List.fold_left (fun n db -> n + size db) 0 dbs)
      (List.fold_left (fun n db -> n + kernel_words sys db) 0 dbs);
    List.iter
      (fun db ->
        let file = Filename.concat dir (db ^ ".snapshot") in
        let (), m =
          measure (fun () -> ok "save" (Mlds.Persist.save sys ~db ~file))
        in
        Sys.remove file;
        note ("save " ^ db) m (size db) (kernel_words sys db))
      dbs
  done;
  Unix.rmdir dir;
  Printf.printf "%s seed %d, %d runs\n%-16s %10s %14s %8s %12s %8s %8s %12s\n" wname
    seed runs "phase" "median ms" "minor words" "records" "words/record"
    "minor GCs" "shares" "live/record";
  List.iter
    (fun name ->
      let times, words, collections, shares, records, live = Hashtbl.find phases name in
      let per n = n /. float_of_int (max 1 records) in
      Printf.printf "%-16s %10.2f %14.0f %8d %12.0f %8d %8d %12.1f\n" name
        (median times *. 1000.) words records (per words) collections shares
        (per (float_of_int live)))
    (List.rev !order);
  Gc.compact ();
  let sys = Perfbench.Workloads.create_system w in
  Obs.Span.reset ();
  Obs.Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Obs.Span.set_enabled false)
    (fun () -> Perfbench.Workloads.preload w ~seed sys);
  let trace = Perfbench.Trace.create () in
  List.iter
    (Perfbench.Trace.graft trace ~op:0 ~parent:0)
    (Obs.Span.take_roots ());
  Printf.printf "traced preload, per span\n%-26s %8s %10s %10s\n" "span"
    "count" "self ms" "total ms";
  List.iter
    (fun (name, (count, total, self)) ->
      Printf.printf "%-26s %8d %10.2f %10.2f\n" name count (self *. 1000.)
        (total *. 1000.))
    (Perfbench.Trace.summary trace);
  Printf.printf "pool.workers_started %d\n"
    (Obs.Metrics.counter_value (Obs.Metrics.counter "pool.workers_started"))

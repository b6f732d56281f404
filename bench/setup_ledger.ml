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
   the databases for the whole preload, counted in one more set-up after
   the measured runs (reachable_words mallocs its own tables, which
   would show in the [heap] column). Two more columns say where a
   phase's memory went outside the minor heap: the words it allocated
   directly in the major heap (blocks too big for the minor heap: the
   calling domain's Gc.counters major - promoted, from the last run),
   and the resident KiB of glibc's main arena (the [heap] mapping's Rss
   in /proc/self/smaps, where malloc puts the major heap's large
   blocks) once the phase is done, read in the first run. Then one more
   preload, traced and apart from the timed runs (which stay
   untraced): the self time of each span name it opened (lil.parse,
   kms.translate+kc.execute, kernel.run, mbds.insert, kfs.format, ...),
   the time inside a span less its children's, which shows the stage a
   set-up gain came from. Ends with
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

(* words allocated directly in the major heap by this domain *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* /proc/self/smaps is read into one buffer made at start, so a reading
   allocates nothing in the heaps it measures *)
let smaps = Bytes.create (1 lsl 20)

(* the index of [pat] in [smaps] at or after [from], below [len] *)
let rec find pat ~len from =
  let n = String.length pat in
  let rec matches i = i = n || (Bytes.get smaps (from + i) = pat.[i] && matches (i + 1)) in
  if from + n > len then None else if matches 0 then Some from else find pat ~len (from + 1)

(* Rss of the [heap] mapping (glibc's main arena) in KiB, or -1 where
   /proc/self/smaps is not readable *)
let heap_rss_kib () =
  match Unix.openfile "/proc/self/smaps" [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> -1
  | fd ->
    let rec fill n =
      match Unix.read fd smaps n (Bytes.length smaps - n) with
      | 0 -> n
      | k -> if n + k = Bytes.length smaps then n + k else fill (n + k)
    in
    let len = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fill 0) in
    let rec digits i acc =
      match Bytes.get smaps i with
      | '0' .. '9' as c -> digits (i + 1) ((acc * 10) + Char.code c - Char.code '0')
      | ' ' when acc = 0 -> digits (i + 1) acc
      | _ -> acc
    in
    (match Option.bind (find "[heap]" ~len 0) (find "\nRss:" ~len) with
    | Some i -> digits (i + 5) 0
    | None -> -1)

type m = {
  dt : float;  (** wall seconds *)
  words : float;  (** minor words *)
  collections : int;  (** minor collections *)
  broadcast_shares : int;
  direct : float;  (** words allocated directly in the major heap *)
  heap_kib : int;  (** [heap] Rss once the phase is done *)
}

let measure f =
  let s0 = shares () and c0 = minor_collections () in
  let d0 = direct_major_words () in
  let w0 = Gc.minor_words () and t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 and direct = direct_major_words () -. d0 in
  let collections = minor_collections () - c0 in
  let broadcast_shares = shares () - s0 in
  (* smaps last, once every other reading is taken *)
  r, { dt; words; collections; broadcast_shares; direct; heap_kib = heap_rss_kib () }

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
  (* phase name -> (seconds of each run, the first run's and the last
     run's measures, records) *)
  let phases = Hashtbl.create 8 and order = ref [] in
  let note name m records =
    let times, first =
      match Hashtbl.find_opt phases name with
      | Some (times, first, _, _) -> times, first
      | None ->
        order := name :: !order;
        [], m
    in
    Hashtbl.replace phases name (m.dt :: times, first, m, records)
  in
  let size sys db = Mapping.Kernel.size (Option.get (Mlds.System.kernel_of sys db)) in
  let loader () =
    let rows = Perfbench.Workloads.university_rows ~seed in
    let sys = Perfbench.Workloads.create_system w in
    ( sys,
      fun () ->
        ok "loader"
          (Mlds.System.define_functional sys ~name:"uni" ~ddl:Daplex.University.ddl rows) )
  in
  for _ = 1 to runs do
    Gc.compact ();
    (if w = Perfbench.Workloads.Oltp_point then
       let sys, load = loader () in
       let (), m = measure load in
       note "loader (uni)" m (size sys "uni"));
    Gc.compact ();
    let sys = Perfbench.Workloads.create_system w in
    let (), m = measure (fun () -> Perfbench.Workloads.preload w ~seed sys) in
    let dbs = List.map fst (Mlds.System.databases sys) in
    note "preload (all)" m (List.fold_left (fun n db -> n + size sys db) 0 dbs);
    List.iter
      (fun db ->
        let file = Filename.concat dir (db ^ ".snapshot") in
        let (), m =
          measure (fun () -> ok "save" (Mlds.Persist.save sys ~db ~file))
        in
        Sys.remove file;
        note ("save " ^ db) m (size sys db))
      dbs
  done;
  (* live words, from one more set-up apart from the measured runs:
     Obj.reachable_words mallocs its tables in [heap] *)
  let live = Hashtbl.create 8 in
  let kernel_words sys db =
    Obj.reachable_words (Obj.repr (Option.get (Mlds.System.kernel_of sys db)))
  in
  (if w = Perfbench.Workloads.Oltp_point then
     let sys, load = loader () in
     load ();
     Hashtbl.replace live "loader (uni)" (kernel_words sys "uni"));
  let sys = Perfbench.Workloads.create_system w in
  Perfbench.Workloads.preload w ~seed sys;
  let dbs = List.map fst (Mlds.System.databases sys) in
  Hashtbl.replace live "preload (all)"
    (List.fold_left (fun n db -> n + kernel_words sys db) 0 dbs);
  List.iter (fun db -> Hashtbl.replace live ("save " ^ db) (kernel_words sys db)) dbs;
  Unix.rmdir dir;
  Printf.printf
    "%s seed %d, %d runs\n%-16s %10s %14s %8s %12s %8s %8s %12s %14s %10s\n" wname
    seed runs "phase" "median ms" "minor words" "records" "words/record"
    "minor GCs" "shares" "live/record" "direct-major w" "[heap] KiB";
  List.iter
    (fun name ->
      let times, first, last, records = Hashtbl.find phases name in
      let per n = n /. float_of_int (max 1 records) in
      Printf.printf "%-16s %10.2f %14.0f %8d %12.0f %8d %8d %12.1f %14.0f %10d\n" name
        (median times *. 1000.) last.words records (per last.words) last.collections
        last.broadcast_shares
        (per (float_of_int (Hashtbl.find live name)))
        last.direct first.heap_kib)
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

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
   set-up gain came from. Between the two, the memory ledger, read once
   the first run's saves are done (the state a server starts serving
   in: one system, preloaded and saved): the Rss of /proc/self/smaps by owner
   (the executable's text, read-only and data segments, the shared
   libraries, [heap], [stack], the anonymous memory split into the major
   heap, the minor heap and the rest), their sum and VmRSS; the ledger
   exits 1 when the sum is further from VmRSS than its tolerance. Ends
   with pool.workers_started, the worker domains the whole ledger
   spawned: a start-up that broadcasts shows there. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let shares () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "mbds.shares_inline")
  + Obs.Metrics.counter_value (Obs.Metrics.counter "mbds.shares_remote")

let workers_started () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "pool.workers_started")

let minor_collections () = (Gc.quick_stat ()).minor_collections

(* words allocated directly in the major heap by this domain *)
let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

(* /proc/self/smaps and /proc/self/status are read into one buffer made
   at start, so a reading allocates nothing in the heaps it measures. It
   is filled, so all of it is resident as the major heap counts it. *)
let smaps = Bytes.make (1 lsl 18) '\000'

(* [path] into [smaps]: its length, or -1 where it is not readable *)
let read_proc path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> -1
  | fd ->
    let rec fill n =
      match Unix.read fd smaps n (Bytes.length smaps - n) with
      | 0 -> n
      | k ->
        if n + k = Bytes.length smaps then failwith (path ^ " is larger than its buffer");
        fill (n + k)
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> fill 0)

(* the number at [i], leading blanks skipped *)
let rec number_at i acc =
  match Bytes.get smaps i with
  | '0' .. '9' as c -> number_at (i + 1) ((acc * 10) + Char.code c - Char.code '0')
  | ' ' | '\t' when acc = 0 -> number_at (i + 1) acc
  | _ -> acc

(* whether the bytes at [i] start with [s] *)
let starts_with s i =
  let n = String.length s in
  let rec go k = k = n || (Bytes.get smaps (i + k) = s.[k] && go (k + 1)) in
  i + n <= Bytes.length smaps && go 0

(* whether the bytes from [i] to the end of the line are [s] *)
let line_is s i =
  let n = String.length s in
  starts_with s i && i + n < Bytes.length smaps && Bytes.get smaps (i + n) = '\n'

(* The memory ledger's rows: the owner of each mapping in smaps. The
   anonymous row is split further in [memory_ledger]. *)
type owner =
  | Text  (** the executable's r-xp mappings *)
  | Read_only  (** its r--p ones: ELF headers, dynamic tables, rodata, RELRO *)
  | Data  (** its rw-p one (.data) and the anonymous one just past it (.bss) *)
  | Libraries  (** every other file-backed mapping *)
  | Heap  (** [heap], glibc's main arena *)
  | Stack  (** [stack], the main thread's *)
  | Anonymous  (** no path: OCaml's heaps, thread stacks, glibc's mmaps *)
  | Kernel  (** [vdso], [vvar] and the like *)

let slot = function
  | Text -> 0 | Read_only -> 1 | Data -> 2 | Libraries -> 3
  | Heap -> 4 | Stack -> 5 | Anonymous -> 6 | Kernel -> 7

let exe = lazy (Unix.readlink "/proc/self/exe")

(* Rss KiB by [slot], from the last [read_smaps] *)
let rss = Array.make 8 0

(* the hex number at [i] and the index past it *)
let rec hex_at i acc =
  match Bytes.get smaps i with
  | '0' .. '9' as c -> hex_at (i + 1) ((acc * 16) + Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> hex_at (i + 1) ((acc * 16) + Char.code c - Char.code 'a' + 10)
  | _ -> acc, i

(* the owner of the mapping whose header line starts at [i],
   "start-end perms offset dev inode   path", and its end address;
   [exe_end] is where the executable's last mapping so far ends *)
let owner_at i ~exe_end =
  let rec field i k = if k = 0 then i else field (Bytes.index_from smaps i ' ' + 1) (k - 1) in
  let start, dash = hex_at i 0 in
  let end_, _ = hex_at (dash + 1) 0 in
  let perms = field i 1 in
  let rec path j = if Bytes.get smaps j = ' ' then path (j + 1) else j in
  let p = path (field i 5) in
  let owner =
    if line_is (Lazy.force exe) p then
      match Bytes.get smaps (perms + 1), Bytes.get smaps (perms + 2) with
      | _, 'x' -> Text
      | 'w', _ -> Data
      | _ -> Read_only
    else if Bytes.get smaps p = '/' then Libraries
    else if line_is "[heap]" p then Heap
    else if line_is "[stack]" p then Stack
    else if Bytes.get smaps p = '\n' then if start = exe_end then Data else Anonymous
    else Kernel
  in
  owner, end_

(* [rss] from /proc/self/smaps; false where it is not readable *)
let read_smaps () =
  Array.fill rss 0 (Array.length rss) 0;
  let len = read_proc "/proc/self/smaps" in
  let rec lines i owner ~exe_end =
    if i < len then
      let next = Bytes.index_from smaps i '\n' + 1 in
      match Bytes.get smaps i with
      | '0' .. '9' | 'a' .. 'f' ->
        let owner, end_ = owner_at i ~exe_end in
        lines next (slot owner)
          ~exe_end:(match owner with Text | Read_only | Data -> end_ | _ -> exe_end)
      | _ ->
        if starts_with "Rss:" i then rss.(owner) <- rss.(owner) + number_at (i + 4) 0;
        lines next owner ~exe_end
  in
  len >= 0 && (lines 0 0 ~exe_end:(-1); true)

(* Rss of the [heap] mapping (glibc's main arena) in KiB, or -1 where
   /proc/self/smaps is not readable *)
let heap_rss_kib () = if read_smaps () then rss.(slot Heap) else -1

(* VmRSS of /proc/self/status in KiB *)
let vm_rss_kib () =
  let len = read_proc "/proc/self/status" in
  let rec find i =
    if i >= len then -1
    else if starts_with "VmRSS:" i then number_at (i + 6) 0
    else find (Bytes.index_from smaps i '\n' + 1)
  in
  find 0

(* The memory ledger: the Rss of every mapping by owner, the anonymous
   memory split into the major heap (Gc.quick_stat's heap_words), the
   minor heaps (one a domain) and the rest, with VmRSS to check the rows'
   sum against. The rest holds thread stacks, glibc's mmaps and the
   pools the major heap has freed, which stay resident; it may read
   below zero, as malloc puts some of the major heap's large blocks in
   [heap]. *)
let memory_ledger ~domains =
  if not (read_smaps ()) then None
  else
    let kib words = words * (Sys.word_size / 8) / 1024 in
    let major = kib (Gc.quick_stat ()).heap_words in
    let minor = domains * kib (Gc.get ()).minor_heap_size in
    let row name owner = name, rss.(slot owner) in
    let rows =
      [ row "executable text" Text; row "executable read-only" Read_only;
        row "executable data" Data; row "shared libraries" Libraries;
        row "[heap]" Heap; row "[stack]" Stack;
        "anonymous: major heap", major; "anonymous: minor heap", minor;
        "anonymous: the rest", rss.(slot Anonymous) - major - minor;
        row "[vdso] and the like" Kernel ]
    in
    Some (rows, vm_rss_kib ())

(* How far the rows' sum may sit from VmRSS: the kernel counts VmRSS per
   CPU in batches of up to 32 pages for each of its file and anonymous
   counters, where smaps walks the page tables, so the two differ by up
   to 256 KiB a CPU. *)
let ledger_tolerance_kib = 256 * Domain.recommended_domain_count ()

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
  let ledger = ref None in
  for run = 1 to runs do
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
      dbs;
    if run = 1 then ledger := memory_ledger ~domains:(1 + workers_started ())
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
  (match !ledger with
  | None -> print_endline "memory ledger: /proc/self/smaps not readable"
  | Some (rows, vm_rss) ->
    Printf.printf "memory ledger after the first run's saves\n%-24s %8s\n" "row" "Rss KiB";
    List.iter (fun (name, kib) -> Printf.printf "%-24s %8d\n" name kib) rows;
    let sum = List.fold_left (fun n (_, kib) -> n + kib) 0 rows in
    Printf.printf "%-24s %8d\n%-24s %8d\n" "sum" sum "VmRSS" vm_rss;
    if abs (sum - vm_rss) > ledger_tolerance_kib then (
      Printf.printf "memory ledger: the rows' sum is %d KiB off VmRSS (tolerance %d)\n"
        (sum - vm_rss) ledger_tolerance_kib;
      exit 1);
    Printf.printf "memory ledger: the rows' sum is within %d KiB of VmRSS\n"
      ledger_tolerance_kib);
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
  Printf.printf "pool.workers_started %d\n" (workers_started ())

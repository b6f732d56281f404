(* Words per operation below the language interfaces (E32, E34).

   usage: request_words.exe [RUNS]   (default 3)

   For one store and for a 2-backend MBDS, each run builds a fresh
   relational database through [Mlds.System.submit_handle] and counts the
   minor words the calling domain allocates, and the words promoted to
   the major heap, in three phases:
   - a 2 000-row SQL bulk INSERT (a UNIQUE id column, so every INSERT
     probes each backend; 500-statement texts built before counting),
     per row;
   - 2 000 SQL point SELECTs by id, one statement per submit, per request;
   - 2 000 ABDL point RETRIEVEs by id, one per submit, per request.
   A broadcast share a pool worker runs allocates on the worker's domain,
   which this count does not see, so the 2-backend reads vary a little
   from run to run on a multi-core host; the inserts never broadcast.

   Then, once, the benchmark's oltp-point request path: client 0's first
   20 000 ops after the seed-1 preload ([Oltp_words]), each language's
   ops alone and the whole stream, in minor and promoted words per op;
   [test/test_memory.ml] guards the whole stream's promoted words.

   Last, the benchmark's scan-mbds read path (E41): client 0's seed-1
   stream after a 1 000-op warm-up, its next 1 000 reads, on a 2-backend
   MBDS with no pool worker so both backends' shares are counted
   ([Oltp_words.scan_reads]). Per read, in minor and promoted words: the
   whole submit (one reply buffer, as the server's executor uses), then
   each stage replayed alone on the same read — the kernel (the ABDL
   requests the read issues: each backend's select and share, and the
   merge), KFS (the reply written into the reply buffer, no string made)
   and the reply's encode (the server's framing: the prefix and the text
   written into bytes kept from read to read). The
   rest of the submit is the LIL parse, KMS and the SQL
   engine's own work. The last row times an empty stage: what the
   count itself reads (the statistics records it reads, promoted by its
   second minor collection). *)

(* The calling domain's minor words and every domain's promoted words
   across [f ()] ([Oltp_words.counters] says why promotion is counted
   program-wide); a minor collection on each side so the promoted count
   is [f]'s survivors alone. *)
let words f =
  Gc.minor ();
  let minor0 = Gc.minor_words () and _, promoted0 = Oltp_words.counters () in
  f ();
  Gc.minor ();
  let minor1 = Gc.minor_words () and _, promoted1 = Oltp_words.counters () in
  minor1 -. minor0, promoted1 -. promoted0

let run ~backends =
  let sys = Mlds.System.create ~backends () in
  (match Mlds.System.define_relational sys ~name:"shop" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let handle language =
    Result.get_ok (Mlds.System.open_handle sys language ~db:"shop")
  in
  let submit h text =
    match Mlds.System.submit_handle h text with
    | Ok _ -> ()
    | Error e -> failwith (Mlds.System.handle_error_to_string e)
  in
  let sql = handle Mlds.System.L_sql in
  submit sql
    "CREATE TABLE orders (id INT UNIQUE, cust INT, amount INT, \
     region CHAR(8), u0 INT, u1 INT)";
  let st = Random.State.make [| 3 |] in
  let regions = [| "north"; "south"; "east"; "west" |] in
  let rows = 2000 in
  let texts =
    List.init (rows / 500) (fun chunk ->
        String.concat ";\n"
          (List.init 500 (fun i ->
               Printf.sprintf
                 "INSERT INTO orders VALUES (%d, %d, %d, '%s', 0, 0)"
                 ((chunk * 500) + i + 1)
                 (1 + Random.State.int st 200)
                 (1 + Random.State.int st 10_000)
                 regions.(Random.State.int st 4))))
  in
  let per n (minor, promoted) =
    minor /. float_of_int n, promoted /. float_of_int n
  in
  let insert = per rows (words (fun () -> List.iter (submit sql) texts)) in
  let reads h fmt step =
    let texts =
      Array.init rows (fun i -> Printf.sprintf fmt (1 + (i * step mod rows)))
    in
    per rows (words (fun () -> Array.iter (submit h) texts))
  in
  let select = reads sql "SELECT amount FROM orders WHERE id = %d" 7 in
  let retrieve =
    reads (handle Mlds.System.L_abdl)
      "RETRIEVE ((FILE = orders) AND (id = %d)) (amount)" 11
  in
  insert, select, retrieve

let oltp_ops = 20_000

let scan_read_ops = 1_000

(* Minor, promoted and directly-major words across [f ()]: a block over
   256 words (2 KiB) skips the minor heap and is allocated, and later
   freed, in the major heap on its own. The directly-major words are
   the calling domain's major less its promoted words ([Gc.counters]):
   a pool worker domain that helps empty this domain's minor heap counts
   what it promotes in both of its own, so the program-wide figures
   would not subtract. *)
let stage_words f =
  Gc.minor ();
  let s0 = Gc.quick_stat () and _, p0, m0 = Gc.counters () in
  f ();
  Gc.minor ();
  let s1 = Gc.quick_stat () and _, p1, m1 = Gc.counters () in
  ( s1.minor_words -. s0.minor_words,
    s1.promoted_words -. s0.promoted_words,
    m1 -. m0 -. (p1 -. p0) )

(* Per read: the whole submit, then the kernel, KFS and reply encode
   replayed. *)
let scan_read_stages () =
  let sys = Oltp_words.scan_system ~seed:1 in
  let kernel = Option.get (Mlds.System.kernel_of sys "shop") in
  (* a private SQL engine over the same kernel and tables, for the SQL
     reads' outcomes *)
  let engine = Relational.Engine.create kernel "shop" in
  ignore
    (Relational.Engine.run_program engine
       (Option.get (Mlds.System.schema_ddl sys "shop")));
  let buf = Buffer.create 4096 in
  let zero () = ref (0., 0., 0.) in
  let total = zero () and kern = zero () and kfs = zero () and encode = zero ()
  and floor = zero () in
  let add acc f =
    let minor, promoted, major = stage_words f in
    let m, p, d = !acc in
    acc := (m +. minor, p +. promoted, d +. major)
  in
  (* the reply's frame, kept from read to read as the server's executor
     keeps its own *)
  let frame = ref (Bytes.create 4096) in
  Oltp_words.scan_reads sys ~seed:1 ~warmup:1_000 ~reads:scan_read_ops
    (fun step (op : Perfbench.Workloads.op) ->
      add total (fun () -> step op);
      (match op.lang with
      | Mlds.System.L_sql ->
        let stmts = Relational.Sql_parser.program op.text in
        let outcomes, requests =
          Mapping.Kernel.collect kernel (fun () ->
              List.map (fun st -> st, Relational.Engine.execute engine st) stmts)
        in
        add kern (fun () ->
            List.iter (fun r -> ignore (Mapping.Kernel.run kernel r)) requests);
        add kfs (fun () ->
            Buffer.clear buf;
            Mlds.Kfs.add_sql buf outcomes)
      | _ ->
        let requests = Abdl.Parser.transaction op.text in
        let results = ref [] in
        add kern (fun () ->
            results := List.map (fun r -> r, Mapping.Kernel.run kernel r) requests);
        add kfs (fun () ->
            Buffer.clear buf;
            Mlds.Kfs.add_abdl buf !results));
      add encode (fun () ->
          frame :=
            Server.Wire.output_frame ~into:!frame ~request_id:1 ~session_id:1
              buf);
      add floor ignore);
  let per acc =
    let m, p, d = !acc and n = float_of_int scan_read_ops in
    m /. n, p /. n, d /. n
  in
  per total, per kern, per kfs, per encode, per floor

let () =
  let runs =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  let cell (minor, promoted) = Printf.sprintf "%.0f / %.1f" minor promoted in
  Printf.printf "words per op, minor / promoted\n%-12s %-18s %-20s %s\n"
    "kernel" "INSERT per row" "SELECT per request" "RETRIEVE per request";
  for _ = 1 to runs do
    List.iter
      (fun (label, backends) ->
        let insert, select, retrieve = run ~backends in
        Printf.printf "%-12s %-18s %-20s %s\n%!" label (cell insert)
          (cell select) (cell retrieve))
      [ "one store", 0; "2 backends", 2 ]
  done;
  Printf.printf "\noltp-point, client 0, seed 1, first %d ops after the preload\n"
    oltp_ops;
  Printf.printf "%-8s %-6s %-16s %s\n" "language" "ops" "minor words/op"
    "promoted words/op";
  List.iter
    (fun (label, only) ->
      let r = Oltp_words.run ?only ~seed:1 ~ops:oltp_ops () in
      Printf.printf "%-8s %-6d %-16.0f %.1f\n%!" label r.ran
        (Oltp_words.per_op r r.minor)
        (Oltp_words.per_op r r.promoted))
    [ "abdl", Some Mlds.System.L_abdl; "sql", Some L_sql;
      "codasyl", Some L_codasyl; "daplex", Some L_daplex; "dli", Some L_dli;
      "all", None ];
  Printf.printf
    "\nscan-mbds reads, client 0, seed 1, %d reads after a 1 000-op warm-up, \
     2 backends, no pool worker\n"
    scan_read_ops;
  let total, kern, kfs, encode, floor = scan_read_stages () in
  Printf.printf "%-28s %s\n" "stage"
    "minor / promoted / directly-major words per read";
  List.iter
    (fun (label, (minor, promoted, major)) ->
      Printf.printf "%-28s %.0f / %.1f / %.0f\n" label minor promoted major)
    [ "whole submit", total; "kernel (select+share+merge)", kern;
      "KFS", kfs; "reply encode", encode; "nothing (the count's floor)", floor ]

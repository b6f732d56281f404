(* Database set-up: the one-write functional loader against the two-pass
   oracle (test/loader_oracle.ml), the direct snapshot writer against the
   Printf line format it replaced, floats through a snapshot, and
   deterministic allocation guards on both and on an SQL bulk load. *)

module U = Daplex.University

(* The university schema over [n] persons with unique ssn values (the
   shape of the benchmark's point-lookup population): the first n/5 are
   employees — the first six of those faculty, teaching courses of the
   sample population — the rest students advised by the faculty. A few
   employees have dependents, so the §VI.D.2 copies are exercised. *)
let persons_rows n =
  let str s = U.Scalar (Abdm.Value.Str s) and int i = U.Scalar (Abdm.Value.Int i) in
  let row row_type row_key row_isa row_values =
    { U.row_type; row_key; row_isa; row_values }
  in
  let base =
    List.filter (fun r -> r.U.row_type = "department" || r.U.row_type = "course") U.rows
  in
  let employees = n / 5 in
  let persons =
    List.init n (fun i ->
        row "person" (Printf.sprintf "p%d" i) []
          [ "name", str (Printf.sprintf "n%06d" (i * 7919 mod 1_000_000));
            "ssn", int (500_000 + i) ])
  in
  let dependents i =
    match i mod 50 with
    | 0 -> [ Abdm.Value.Str "ann"; Abdm.Value.Str "bob" ]
    | 1 -> [ Abdm.Value.Str "cy" ]
    | _ -> []
  in
  let emps =
    List.init employees (fun i ->
        row "employee" (Printf.sprintf "e%d" i) [ "person", Printf.sprintf "p%d" i ]
          [ "salary", int (20_000 + (i * 37 mod 70_000));
            "dependents", U.Scalars (dependents i) ])
  in
  let teaching =
    [| [ "c1"; "c2" ]; [ "c3" ]; [ "c4"; "c5"; "c6" ]; [ "c7" ]; [ "c8"; "c9" ]; [ "c10" ] |]
  in
  let depts = [| "d1"; "d1"; "d2"; "d3"; "d4"; "d4" |] in
  let faculty =
    List.init 6 (fun i ->
        row "faculty" (Printf.sprintf "f%d" (i + 1)) [ "employee", Printf.sprintf "e%d" i ]
          [ "rank", str "full"; "dept", U.Ref depts.(i); "teaching", U.Refs teaching.(i) ])
  in
  let students =
    List.init (n - employees) (fun i ->
        let p = employees + i in
        row "student" (Printf.sprintf "s%d" p) [ "person", Printf.sprintf "p%d" p ]
          [ "major", str (if i mod 3 = 0 then "Physics" else "Mathematics");
            "advisor", U.Ref (Printf.sprintf "f%d" ((i mod 6) + 1)) ])
  in
  base @ persons @ emps @ faculty @ students

(* --- the loader against its oracle ------------------------------------------ *)

let kernel_of_kind = function
  | 0 -> Mapping.Kernel.single ()
  | n -> Mapping.Kernel.multi n

let contents kernel = Mapping.Kernel.select kernel Abdm.Query.always

let check_same_load ~what schema rows =
  let transform = Transformer.Transform.transform schema in
  List.iter
    (fun backends ->
      let oracle = kernel_of_kind backends and loaded = kernel_of_kind backends in
      let oracle_keys = Loader_oracle.load oracle transform rows in
      let keys = Mapping.Loader.load loaded transform rows in
      let label = Printf.sprintf "%s, %d backends" what backends in
      let expected = contents oracle and got = contents loaded in
      Alcotest.(check int) (label ^ ": record count")
        (List.length expected) (List.length got);
      (* structural equality: Int 3 and Float 3.0 must not pass for each other *)
      List.iter2
        (fun (k1, r1) (k2, r2) ->
          if k1 <> k2 || r1 <> r2 then
            Alcotest.failf "%s: @%d %s <> @%d %s" label k1 (Abdm.Record.to_string r1) k2
              (Abdm.Record.to_string r2))
        expected got;
      List.iter
        (fun (r : U.row) ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s: key of %s/%s" label r.row_type r.row_key)
            (Hashtbl.find_opt oracle_keys (r.row_type, r.row_key))
            (Mapping.Loader.find_key keys ~type_name:r.row_type ~row_key:r.row_key))
        rows)
    [ 0; 2; 4 ]

let test_loader_matches_oracle () =
  let uni = U.schema () in
  check_same_load ~what:"university" uni U.rows;
  check_same_load ~what:"university x3" uni (U.scaled_rows 3);
  check_same_load ~what:"university x30" uni (U.scaled_rows 30);
  check_same_load ~what:"company" (Daplex.Company.schema ()) Test_daplex_dml.company_rows;
  check_same_load ~what:"3000 persons" uni (persons_rows 3000)

let test_loader_needs_empty_kernel () =
  let transform = Transformer.Transform.transform (U.schema ()) in
  let kernel = Mapping.Kernel.single () in
  ignore (Mapping.Kernel.insert kernel (Abdm.Record.make [ Abdm.Keyword.file "person" ]));
  Alcotest.check_raises "non-empty kernel rejected"
    (Invalid_argument "Loader.load: the kernel is not empty") (fun () ->
      ignore (Mapping.Loader.load kernel transform U.rows));
  (* emptied, not fresh: keys continue where inserts would, as before *)
  ignore (Mapping.Kernel.delete kernel Abdm.Query.always);
  let oracle = Mapping.Kernel.single () in
  ignore (Mapping.Kernel.insert oracle (Abdm.Record.make [ Abdm.Keyword.file "person" ]));
  ignore (Mapping.Kernel.delete oracle Abdm.Query.always);
  ignore (Loader_oracle.load oracle transform U.rows);
  ignore (Mapping.Loader.load kernel transform U.rows);
  Alcotest.(check bool) "same records under the same keys" true
    (contents oracle = contents kernel)

(* --- the snapshot writer ----------------------------------------------------- *)

(* a record's keywords in order, as a list *)
let keyword_list record =
  List.rev (Abdm.Record.fold (fun acc a v -> Abdm.Keyword.make a v :: acc) [] record)

(* The record line as the Printf writer rendered it (float-free values). *)
let printf_line key (record : Abdm.Record.t) =
  let value = function
    | Abdm.Value.Int i -> string_of_int i
    | Abdm.Value.Str s ->
      Printf.sprintf "'%s'" (String.concat "''" (String.split_on_char '\'' s))
    | Abdm.Value.Null -> "NULL"
    | Abdm.Value.Float _ -> invalid_arg "printf_line: float"
  in
  let keywords =
    List.map
      (fun (kw : Abdm.Keyword.t) -> Printf.sprintf "<%s, %s>" kw.attribute (value kw.value))
      (keyword_list record)
  in
  Printf.sprintf "@%d %s\n" key (Printf.sprintf "INSERT (%s)" (String.concat ", " keywords))

let gen_float_free_record =
  let open QCheck2.Gen in
  let printable = map Char.chr (int_range 32 126) in
  let value =
    oneof
      [ map (fun i -> Abdm.Value.Int i) int;
        map (fun s -> Abdm.Value.Str s) (string_size ~gen:printable (int_range 0 12));
        pure Abdm.Value.Null ]
  in
  map2
    (fun file values ->
      Abdm.Record.make
        (Abdm.Keyword.file (Printf.sprintf "f%d" file)
        :: List.mapi (fun i v -> Abdm.Keyword.make (Printf.sprintf "a%d" i) v) values))
    (int_range 0 3)
    (list_size (int_range 0 6) value)

let system_with records =
  let sys = Mlds.System.create () in
  (match Mlds.System.define_relational sys ~name:"t" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  let kernel = Option.get (Mlds.System.kernel_of sys "t") in
  List.iter (fun r -> ignore (Mapping.Kernel.insert kernel r)) records;
  sys

(* the records: from after %DATA up to the %CRC trailer line *)
let data_lines snapshot =
  let marker = "%DATA\n" in
  let rec find i =
    if String.sub snapshot i (String.length marker) = marker then i + String.length marker
    else find (i + 1)
  in
  let trailer = String.length "%CRC 00000000\n" in
  String.sub snapshot (find 0) (String.length snapshot - trailer - find 0)

let read_file file = In_channel.with_open_bin file In_channel.input_all

let prop_snapshot_line =
  QCheck2.Test.make ~name:"snapshot lines equal the Printf lines; checkpoint = dump"
    ~count:100
    QCheck2.Gen.(list_size (int_range 0 20) gen_float_free_record)
    (fun records ->
      let sys = system_with records in
      let dump = Result.get_ok (Mlds.Persist.dump sys ~db:"t") in
      let expected =
        String.concat "" (List.mapi (fun i r -> printf_line (i + 1) r) records)
      in
      let file = Filename.temp_file "mldsckpt" ".snap" in
      Result.get_ok (Mlds.Persist.checkpoint sys ~db:"t" ~file);
      let checkpointed = read_file file in
      Sys.remove file;
      String.equal (data_lines dump) expected && String.equal checkpointed dump)

let test_checkpoint_mbds () =
  (* on MBDS the walk merges the backends by key *)
  let sys = Mlds.System.create ~backends:3 () in
  (match Mlds.System.define_functional sys ~name:"u" ~ddl:U.ddl (U.scaled_rows 3) with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let dump = Result.get_ok (Mlds.Persist.dump sys ~db:"u") in
  let file = Filename.temp_file "mldsckpt" ".snap" in
  Result.get_ok (Mlds.Persist.checkpoint sys ~db:"u" ~file);
  let checkpointed = read_file file in
  Sys.remove file;
  Alcotest.(check string) "checkpoint = dump" dump checkpointed;
  let key_of_line l = int_of_string (List.hd (String.split_on_char ' ' l)) in
  let keys =
    String.split_on_char '@' (data_lines dump)
    |> List.filter (fun l -> l <> "")
    |> List.map key_of_line
  in
  Alcotest.(check bool) "lines in ascending key order" true (List.sort compare keys = keys)

let test_float_survives_snapshot () =
  let record =
    Abdm.Record.make
      [ Abdm.Keyword.file "m"; Abdm.Keyword.make "x" (Abdm.Value.Float 1234567.5);
        Abdm.Keyword.make "y" (Abdm.Value.Float 3.0);
        Abdm.Keyword.make "z" (Abdm.Value.Float 2.71828182) ]
  in
  let sys = system_with [ record ] in
  let text = Result.get_ok (Mlds.Persist.dump sys ~db:"t") in
  let restored = Mlds.System.create () in
  (match Mlds.Persist.restore restored ~text with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "restore: %s" msg);
  Alcotest.(check bool) "bit-equal floats, 3.0 still a float" true
    (contents (Option.get (Mlds.System.kernel_of restored "t")) = [ 1, record ])

(* --- allocation guard ------------------------------------------------------- *)

(* Minor-heap words per loaded record across [define_functional] of the
   3000-person population, and per record across [Persist.dump] of it.
   Allocation, unlike set-up time, does not move with the host. The
   one-write loader measures ~474 words a record and the direct writer
   ~32; the two-pass loader and the Printf writer measured ~1610 and
   ~652, so either one coming back fails here. *)
let loader_words_bound = 600.

let dump_words_bound = 80.

let minor_words f =
  let before = Gc.minor_words () in
  let r = f () in
  r, Gc.minor_words () -. before

let test_allocation_guard () =
  let rows = persons_rows 3000 in
  let sys = Mlds.System.create () in
  let defined, load_words =
    minor_words (fun () -> Mlds.System.define_functional sys ~name:"uni" ~ddl:U.ddl rows)
  in
  (match defined with Ok () -> () | Error msg -> Alcotest.fail msg);
  let kernel = Option.get (Mlds.System.kernel_of sys "uni") in
  let records = float_of_int (Mapping.Kernel.size kernel) in
  let dumped, dump_words = minor_words (fun () -> Mlds.Persist.dump sys ~db:"uni") in
  ignore (Result.get_ok dumped);
  let per_load = load_words /. records and per_dump = dump_words /. records in
  if per_load > loader_words_bound then
    Alcotest.failf "define_functional: %.0f minor words a record (bound %.0f)" per_load
      loader_words_bound;
  if per_dump > dump_words_bound then
    Alcotest.failf "Persist.dump: %.0f minor words a record (bound %.0f)" per_dump
      dump_words_bound

(* Minor-heap words per row across a 2 000-row SQL bulk load: a UNIQUE
   id column, so every INSERT probes every backend, submitted through a
   session handle in 500-statement texts (the texts are built before the
   count starts). A row takes ~590 words on a 2-backend MBDS and ~580 on
   one store. With the request ledgers under the kernel (the store's
   per-operation clock, the controller's modelled and measured times) it
   took ~720 and ~630; each put back alone: the store clock ~700 and
   ~630, the controller's ~660 on 2 backends, so either fails a bound.
   Before the SQL parser read the lexer cursor, INSERT took one pass and
   the MBDS write lost its per-row closures it took ~1 350 and ~1 150. *)
let sql_bulk_words_bound = 630.

let sql_bulk_single_words_bound = 615.

let sql_bulk_words ~backends =
  let sys = Mlds.System.create ~backends () in
  (match Mlds.System.define_relational sys ~name:"shop" with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  let h = Result.get_ok (Mlds.System.open_handle sys Mlds.System.L_sql ~db:"shop") in
  let submit text =
    match Mlds.System.submit_handle h text with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Mlds.System.handle_error_to_string e)
  in
  submit
    "CREATE TABLE orders (id INT UNIQUE, cust INT, amount INT, region CHAR(8), u0 INT, u1 INT)";
  let st = Random.State.make [| 3 |] in
  let regions = [| "north"; "south"; "east"; "west" |] in
  let rows = 2000 in
  let texts =
    List.init (rows / 500) (fun chunk ->
        String.concat ";\n"
          (List.init 500 (fun i ->
               Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d, '%s', 0, 0)"
                 ((chunk * 500) + i + 1)
                 (1 + Random.State.int st 200)
                 (1 + Random.State.int st 10_000)
                 regions.(Random.State.int st 4))))
  in
  let _, promoted0, major0 = Gc.counters () in
  let (), words = minor_words (fun () -> List.iter submit texts) in
  let _, promoted1, major1 = Gc.counters () in
  let kernel = Option.get (Mlds.System.kernel_of sys "shop") in
  Alcotest.(check int) "every row stored" rows (Mapping.Kernel.size kernel);
  let per_row x = x /. float_of_int rows in
  per_row words, per_row (major1 -. major0 -. (promoted1 -. promoted0))

let test_sql_bulk_load_guard () =
  let per_row, _ = sql_bulk_words ~backends:2 in
  if per_row > sql_bulk_words_bound then
    Alcotest.failf "SQL bulk load, 2 backends: %.0f minor words a row (bound %.0f)" per_row
      sql_bulk_words_bound

let test_sql_bulk_load_single_guard () =
  let per_row, _ = sql_bulk_words ~backends:0 in
  if per_row > sql_bulk_single_words_bound then
    Alcotest.failf "SQL bulk load, one store: %.0f minor words a row (bound %.0f)" per_row
      sql_bulk_single_words_bound

(* Words a row of the same bulk load allocates directly in the major
   heap (blocks too big for the minor heap: the calling domain's
   [major - promoted]), on one store and on 2 backends. A handle keeps
   its reply buffer, so the 500 INSERTs' ~34 KB replies regrow nothing:
   ~18 words a row. A fresh 256-byte buffer per submit, doubled to each
   reply's size, took ~42. *)
let sql_bulk_direct_words_bound = 30.

let test_sql_bulk_load_direct_words () =
  List.iter
    (fun backends ->
      let _, direct = sql_bulk_words ~backends in
      Printf.printf "%d backends: %.1f directly-major words a row\n" backends direct;
      if direct > sql_bulk_direct_words_bound then
        Alcotest.failf "SQL bulk load, %d backends: %.1f directly-major words a row (bound %.0f)"
          backends direct sql_bulk_direct_words_bound)
    [ 0; 2 ]

(* One handle's replies, successive [submit_handle]s on the buffer it
   keeps, equal those of a fresh handle per statement (a fresh reply
   buffer each) over the same scripts. The scripts mix short replies (a
   point SELECT, a parse error), long ones (up to ~60 KB) and one past
   the 1 MiB the handle keeps (every row of 1 200 with a 1 000-byte
   column), so a reply that left an earlier one's bytes behind, or one
   the reset cut short, shows. *)
let wide_rows = 1200

let wide_system =
  lazy
    (let sys = Mlds.System.create () in
     (match Mlds.System.define_relational sys ~name:"shop" with
     | Ok () -> ()
     | Error msg -> Alcotest.fail msg);
     let h = Result.get_ok (Mlds.System.open_handle sys Mlds.System.L_sql ~db:"shop") in
     let pad i = String.make 1000 (Char.chr (Char.code 'a' + (i mod 26))) in
     (match
        Mlds.System.submit_handle h
          (String.concat ";\n"
             ("CREATE TABLE wide (id INT UNIQUE, pad CHAR(1000))"
             :: List.init wide_rows (fun i ->
                    Printf.sprintf "INSERT INTO wide VALUES (%d, '%s')" (i + 1) (pad i))))
      with
     | Ok _ -> ()
     | Error e -> Alcotest.fail (Mlds.System.handle_error_to_string e));
     Mlds.System.close_handle h;
     sys)

let gen_reply_scripts =
  let open QCheck2.Gen in
  let short =
    oneof
      [ map (Printf.sprintf "SELECT id FROM wide WHERE id = %d") (int_range 1 wide_rows);
        pure "SELECT id FROM" ]
  in
  let long = map (Printf.sprintf "SELECT id, pad FROM wide WHERE id < %d") (int_range 2 60) in
  let huge = pure "SELECT id, pad FROM wide" in
  map3
    (fun before huge after -> before @ (huge :: after))
    (list_size (int_range 0 4) (oneof [ short; long ]))
    huge
    (list_size (int_range 1 4) (oneof [ short; long ]))

let prop_handle_replies =
  QCheck2.Test.make ~name:"a handle's replies = a fresh session's" ~count:30
    ~print:QCheck2.Print.(list string)
    gen_reply_scripts
    (fun scripts ->
      let sys = Lazy.force wide_system in
      let open_shop () =
        Result.get_ok (Mlds.System.open_handle sys Mlds.System.L_sql ~db:"shop")
      in
      let h = open_shop () in
      let got = List.map (Mlds.System.submit_handle h) scripts in
      Mlds.System.close_handle h;
      (* the reference: a fresh handle, so a fresh reply buffer, per statement *)
      let fresh src =
        let h = open_shop () in
        let reply = Mlds.System.submit_handle h src in
        Mlds.System.close_handle h;
        reply
      in
      let expected = List.map fresh scripts in
      if not (List.exists (function Ok r -> String.length r > 1 lsl 20 | Error _ -> false) got)
      then QCheck2.Test.fail_report "no reply past 1 MiB";
      List.equal (Result.equal ~ok:String.equal ~error:( = )) got expected)

(* Kept words per record: everything a kernel reaches
   ([Obj.reachable_words]: records, maps, index postings, shapes) over
   its record count, after the benchmark's preload (seed 1) of the
   oltp-point databases uni (6 044 records, the functional loader) and
   pay (3 000, SQL INSERTs), and scan-mbds's shop (2 000, SQL INSERTs on
   2 backends). Records hold one shared attribute array per file and
   their values in a flat array, and the store keeps each record in one
   key-ordered map of its file: ~23.3, ~39.0 and ~43.1 words. A store
   that also keeps a key set per file kept ~28.3, ~44.0 and ~48.1, and a
   record held as a list of keywords ~51, ~71 and ~85, so each fails
   every bound. *)
let live_words_bounds =
  [ Perfbench.Workloads.Oltp_point, [ "uni", 24.; "pay", 40. ];
    Perfbench.Workloads.Scan_mbds, [ "shop", 44. ] ]

let test_live_words_guard () =
  List.iter
    (fun (w, dbs) ->
      let sys = Perfbench.Workloads.create_system w in
      Perfbench.Workloads.preload w ~seed:1 sys;
      List.iter
        (fun (db, bound) ->
          let kernel = Option.get (Mlds.System.kernel_of sys db) in
          let per_record =
            float_of_int (Obj.reachable_words (Obj.repr kernel))
            /. float_of_int (Mapping.Kernel.size kernel)
          in
          if per_record > bound then
            Alcotest.failf "%s: %.1f live words a record (bound %.0f)" db per_record bound)
        dbs)
    live_words_bounds

(* --- snapshots stream ---------------------------------------------------------- *)

(* Words [Persist.save] allocates directly in the major heap (blocks too
   big for the minor heap: [major - promoted]) for oltp-point's uni,
   6 044 records, ~590 KB of snapshot. The streamed writer holds one
   64 KiB chunk (~8 K words); a writer that builds the whole snapshot in
   a [Buffer] and copies it to seal it allocates ~170 K words there. *)
let save_major_words_bound = 24_000.

(* [f ()] and the words it allocated directly in the major heap *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let _, promoted1, major1 = Gc.counters () in
  r, major1 -. major0 -. (promoted1 -. promoted0)

let test_save_streams () =
  let sys = Perfbench.Workloads.create_system Perfbench.Workloads.Oltp_point in
  Perfbench.Workloads.preload Perfbench.Workloads.Oltp_point ~seed:1 sys;
  let file = Filename.temp_file "mldssave" ".snap" in
  let saved_ok, direct = direct_major_words (fun () -> Mlds.Persist.save sys ~db:"uni" ~file) in
  Result.iter_error Alcotest.fail saved_ok;
  let saved = read_file file in
  Sys.remove file;
  Alcotest.(check string) "the file is the dump" (Result.get_ok (Mlds.Persist.dump sys ~db:"uni"))
    saved;
  Alcotest.(check bool) "spans several chunks" true (String.length saved > 4 * 65536);
  if direct > save_major_words_bound then
    Alcotest.failf "Persist.save: %.0f words direct to the major heap (bound %.0f)" direct
      save_major_words_bound;
  (* a later save takes the chunk the last one gave back: it allocates
     nothing directly in the major heap *)
  (match direct_major_words (fun () -> Mlds.Persist.save sys ~db:"uni" ~file) with
  | Ok (), 0. -> ()
  | Ok (), w -> Alcotest.failf "a second Persist.save: %.0f words direct to the major heap" w
  | Error msg, _ -> Alcotest.fail msg);
  (* a writer owns its chunk from start to seal: two saves of one
     database at once, on two threads, never share one, and both files
     are whole *)
  let saves = List.map (fun file -> (file, ref (Error "not run"))) [ file; file ^ ".2" ] in
  List.map
    (fun (file, result) ->
      Thread.create (fun () -> result := Mlds.Persist.save sys ~db:"uni" ~file) ())
    saves
  |> List.iter Thread.join;
  List.iter
    (fun (file, result) ->
      Result.iter_error Alcotest.fail !result;
      Alcotest.(check string) "a concurrent save is the dump" saved (read_file file);
      Sys.remove file)
    saves

(* A snapshot cut anywhere, even inside its %CRC trailer, is corrupt:
   never read as a shorter snapshot. *)
let test_cut_snapshot_is_corrupt () =
  let sys = system_with [ Abdm.Record.make [ Abdm.Keyword.file "f" ] ] in
  let text = Result.get_ok (Mlds.Persist.dump sys ~db:"t") in
  let n = String.length text in
  for cut = 0 to n - 1 do
    match Mlds.Persist.restore (Mlds.System.create ()) ~text:(String.sub text 0 cut) with
    | Ok () -> Alcotest.failf "a snapshot cut at %d of %d bytes restored" cut n
    | Error _ -> ()
  done;
  Alcotest.(check bool) "the whole snapshot restores" true
    (Result.is_ok (Mlds.Persist.restore (Mlds.System.create ()) ~text))

(* Strings and texts holding the snapshot's and the grammar's own
   delimiters: a newline, a carriage return, a quote, a bar, a closing
   parenthesis. *)
let gen_tricky_record =
  let open QCheck2.Gen in
  let char = oneofl [ 'a'; ' '; '\n'; '\r'; '\''; '|'; ')'; '('; ','; '>'; '@'; '%' ] in
  let str = string_size ~gen:char (int_range 0 10) in
  let value =
    oneof [ map (fun i -> Abdm.Value.Int i) small_signed_int; map (fun s -> Abdm.Value.Str s) str ]
  in
  map3
    (fun values text with_text ->
      Abdm.Record.make
        ?text:(if with_text then Some text else None)
        (Abdm.Keyword.file "f"
        :: List.mapi (fun i v -> Abdm.Keyword.make (Printf.sprintf "a%d" i) v) values))
    (list_size (int_range 0 4) value) str bool

(* dump ∘ restore ∘ dump is the identity, every record comes back with
   its values and text, and so does a WAL replay of the same inserts. *)
let prop_tricky_records_round_trip =
  QCheck2.Test.make ~name:"snapshot and WAL round-trip any record" ~count:100
    QCheck2.Gen.(list_size (int_range 1 8) gen_tricky_record)
    (fun records ->
      let sys = system_with records in
      let d1 = Result.get_ok (Mlds.Persist.dump sys ~db:"t") in
      let restored = Mlds.System.create () in
      (match Mlds.Persist.restore restored ~text:d1 with
      | Ok () -> ()
      | Error msg -> QCheck2.Test.fail_reportf "restore: %s" msg);
      let kernel_of sys = Option.get (Mlds.System.kernel_of sys "t") in
      let same a b =
        List.equal
          (fun (k, r) (k', r') -> k = k' && Abdm.Record.equal r r')
          (contents (kernel_of a)) (contents (kernel_of b))
      in
      (* the inserts again, logged: the snapshot holds no record, the
         WAL every one *)
      let dir = Filename.temp_dir "mldsrt" "" in
      let snap = Filename.concat dir "t.mlds" in
      let logged = system_with [] in
      Result.get_ok (Mlds.Persist.save logged ~db:"t" ~file:snap);
      ignore (Result.get_ok (Mlds.System.attach_wal logged ~db:"t" ~file:(snap ^ ".wal")));
      List.iter (fun r -> ignore (Mapping.Kernel.insert (kernel_of logged) r)) records;
      Mlds.System.detach_wal logged ~db:"t";
      let replayed = Mlds.System.create () in
      let loaded = Mlds.Persist.load replayed ~file:snap in
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      Result.is_ok loaded
      && String.equal d1 (Result.get_ok (Mlds.Persist.dump restored ~db:"t"))
      && same sys restored && same sys replayed)

let suite =
  [
    "loader = two-pass oracle", `Quick, test_loader_matches_oracle;
    "loader needs an empty kernel", `Quick, test_loader_needs_empty_kernel;
    QCheck_alcotest.to_alcotest prop_snapshot_line;
    "checkpoint on MBDS = the dump", `Quick, test_checkpoint_mbds;
    "float survives a snapshot", `Quick, test_float_survives_snapshot;
    "allocation guard", `Quick, test_allocation_guard;
    "SQL bulk-load allocation guard", `Quick, test_sql_bulk_load_guard;
    "SQL bulk-load allocation guard, one store", `Quick, test_sql_bulk_load_single_guard;
    "SQL bulk load: directly-major words a row", `Quick, test_sql_bulk_load_direct_words;
    QCheck_alcotest.to_alcotest prop_handle_replies;
    "live words per record guard", `Quick, test_live_words_guard;
    "save streams in chunks", `Quick, test_save_streams;
    "a cut snapshot is corrupt", `Quick, test_cut_snapshot_is_corrupt;
    QCheck_alcotest.to_alcotest prop_tricky_records_round_trip;
  ]

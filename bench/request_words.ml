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
   ops alone and the whole stream, in minor and promoted words per op.
   The promoted words are what the statement cache's admission rule
   bounds (E34); [test/test_memory.ml] guards the whole stream's. *)

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
  Printf.printf "%-8s %-6s %-16s %-19s %s\n" "language" "ops" "minor words/op"
    "promoted words/op" "statement cache hit ratio";
  List.iter
    (fun (label, only) ->
      let r = Oltp_words.run ?only ~seed:1 ~ops:oltp_ops () in
      Printf.printf "%-8s %-6d %-16.0f %-19.1f %.3f\n%!" label r.ran
        (Oltp_words.per_op r r.minor)
        (Oltp_words.per_op r r.promoted)
        r.hit_ratio)
    [ "abdl", Some Mlds.System.L_abdl; "sql", Some L_sql;
      "codasyl", Some L_codasyl; "daplex", Some L_daplex; "dli", Some L_dli;
      "all", None ]

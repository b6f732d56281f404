(* Minor-heap words per operation below the language interfaces (E32).

   usage: request_words.exe [RUNS]   (default 3)

   For one store and for a 2-backend MBDS, each run builds a fresh
   relational database through [Mlds.System.submit_handle] and counts the
   minor words the calling domain allocates in three phases:
   - a 2 000-row SQL bulk INSERT (a UNIQUE id column, so every INSERT
     probes each backend; 500-statement texts built before counting),
     per row;
   - 2 000 SQL point SELECTs by id, one statement per submit, per request;
   - 2 000 ABDL point RETRIEVEs by id, one per submit, per request.
   A broadcast share a pool worker runs allocates on the worker's domain,
   which this count does not see, so the 2-backend reads vary a little
   from run to run on a multi-core host; the inserts never broadcast. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

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
  let per n w = w /. float_of_int n in
  let insert =
    per rows (minor_words (fun () -> List.iter (submit sql) texts))
  in
  let reads h fmt step =
    let texts =
      Array.init rows (fun i -> Printf.sprintf fmt (1 + (i * step mod rows)))
    in
    per rows (minor_words (fun () -> Array.iter (submit h) texts))
  in
  let select = reads sql "SELECT amount FROM orders WHERE id = %d" 7 in
  let retrieve =
    reads (handle Mlds.System.L_abdl)
      "RETRIEVE ((FILE = orders) AND (id = %d)) (amount)" 11
  in
  insert, select, retrieve

let () =
  let runs =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 3
  in
  Printf.printf "%-12s %-18s %-20s %s\n" "kernel" "INSERT words/row"
    "SELECT words/request" "RETRIEVE words/request";
  for _ = 1 to runs do
    List.iter
      (fun (label, backends) ->
        let insert, select, retrieve = run ~backends in
        Printf.printf "%-12s %-18.0f %-20.0f %.0f\n%!" label insert select
          retrieve)
      [ "one store", 0; "2 backends", 2 ]
  done

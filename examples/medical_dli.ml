(* The hierarchical interface at work: a medical database navigated with
   DL/I calls (GU/GN/GNP with segment search arguments, ISRT/REPL/DLET),
   then read through its derived relational view with SQL — the §VII
   companion cross-model direction. *)

let submit t lang db src =
  match Mlds.System.open_handle t lang ~db with
  | Error msg -> failwith msg
  | Ok h ->
    let reply = Mlds.System.submit_handle h src in
    Mlds.System.close_handle h;
    match reply with
    | Ok out -> out
    | Error e -> failwith (Mlds.System.handle_error_to_string e)

let banner title = Printf.printf "\n=== %s ===\n" title

let () =
  let t = Mlds.System.create () in
  begin
    match
      Mlds.System.define_hierarchical t ~name:"medical"
        ~ddl:
          {|DATABASE medical
SEGMENT patient (pname CHAR(20), pid INT)
SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)
SEGMENT treatment PARENT visit (drug CHAR(12))
SEGMENT insurer PARENT patient (company CHAR(20))|}
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  end;

  banner "Loading through DL/I ISRT (hierarchic inserts)";
  print_endline
    (submit t Mlds.System.L_dli "medical"
       {|ISRT patient (pname = 'Doe', pid = 1)
ISRT patient(pid = 1) visit (vdate = 'Jan', cost = 100)
ISRT patient(pid = 1) visit (vdate = 'Feb', cost = 250)
ISRT patient(pid = 1) visit(vdate = 'Feb') treatment (drug = 'aspirin')
ISRT patient(pid = 1) insurer (company = 'Aetna')
ISRT patient (pname = 'Roe', pid = 2)
ISRT patient(pid = 2) visit (vdate = 'Mar', cost = 80)|});

  banner "GU with a qualified path, then GNP within the parent";
  print_endline
    (submit t Mlds.System.L_dli "medical"
       {|GU patient(pid = 1)
GNP visit
GNP visit
GNP visit|});

  banner "GN walks the hierarchic sequence";
  print_endline
    (submit t Mlds.System.L_dli "medical"
       {|GU patient(pid = 1) visit(vdate = 'Feb')
GN
GN|});

  banner "REPL updates the current segment";
  print_endline
    (submit t Mlds.System.L_dli "medical"
       {|GU patient(pid = 2) visit(vdate = 'Mar')
REPL (cost = 95)
GU patient(pid = 2) visit(vdate = 'Mar')|});

  banner "The same hierarchy through SQL (read-only relational view)";
  print_endline
    (submit t Mlds.System.L_sql "medical"
       "SELECT pname, vdate, cost FROM visit, patient WHERE visit.patient = patient.patient");
  print_newline ();
  print_endline
    (submit t Mlds.System.L_sql "medical"
       "SELECT COUNT(vdate), AVG(cost) FROM visit")

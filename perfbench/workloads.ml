(* The three benchmark workloads: how each database is preloaded, and the
   deterministic per-client operation stream a closed-loop client sends.

   Every stream is a pure function of (workload, seed, client, catalog):
   the load generator, the serial replay oracle and the tests all rebuild
   it from those four values. A client writes only keys private to it, or
   attributes no read filters or projects, so each client's replies do not
   depend on how the two clients interleave on the server. *)

type t = Oltp_point | Ingest_durable | Scan_mbds

let all = [ Oltp_point; Ingest_durable; Scan_mbds ]

let name = function
  | Oltp_point -> "oltp-point"
  | Ingest_durable -> "ingest-durable"
  | Scan_mbds -> "scan-mbds"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Closed-loop clients, and MBDS backends for scan-mbds: the reference
   host's core count, fixed so the inputs do not depend on the host. *)
let clients = 2

let backends = function Scan_mbds -> 2 | Oltp_point | Ingest_durable -> 0

let create_system w = Mlds.System.create ~backends:(backends w) ()

(* --- sizes ------------------------------------------------------------------ *)

(* oltp-point: distinct point keys per database, against the 512-entry
   statement cache — each key is its own statement text. *)
let oltp_keys = 3000

(* DL/I GU walks the whole hierarchic sequence, so its cost grows with
   the hierarchical database: keep that one small *)
let dli_patients = 32

let oltp_employees = 600

(* requests per login: a client opens a new session (language, database)
   every [burst] requests *)
let burst = 16

let ingest_preload = 2000

(* client 0 sends a Checkpoint after this many writes: ingest-durable
   checkpoints its growing log, oltp-point (where it covers the small
   hierarchical database, the first with a WAL) keeps the path exercised *)
let checkpoint_every = function
  | Ingest_durable -> Some 1500
  | Oltp_point -> Some 1000
  | Scan_mbds -> None

let scan_rows = 2000

let scan_custs = 200

(* --- deterministic randomness ----------------------------------------------- *)

let rng ~seed salt = Random.State.make [| seed; salt; 0x5eed |]

let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* A Zipf(s) sampler over ranks 0..n-1, mapped through a seeded
   permutation so the hot keys differ from seed to seed. *)
type zipf = { cdf : float array; perm : int array }

let zipf ~seed ~n ~s =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. (x /. total);
        !acc)
      w
  in
  let st = rng ~seed 77 in
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- x
  done;
  { cdf; perm }

let zipf_draw z st =
  let u = Random.State.float st 1. in
  let lo = ref 0 and hi = ref (Array.length z.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if z.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  z.perm.(!lo)

(* --- preload ---------------------------------------------------------------- *)

let ok what = function
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "preload %s: %s" what msg)

(* Run a long script through a throwaway session, in chunks so one
   formatted reply never grows huge. *)
let run_script sys lang ~db lines =
  let h =
    match Mlds.System.open_handle sys lang ~db with
    | Ok h -> h
    | Error msg -> failwith ("preload session: " ^ msg)
  in
  let sep = if lang = Mlds.System.L_sql then ";\n" else "\n" in
  let rec go = function
    | [] -> ()
    | lines ->
      let chunk = List.filteri (fun i _ -> i < 500) lines in
      let rest = List.filteri (fun i _ -> i >= 500) lines in
      (match Mlds.System.submit_handle h (String.concat sep chunk) with
      | Ok _ -> ()
      | Error e ->
        failwith ("preload script: " ^ Mlds.System.handle_error_to_string e));
      go rest
  in
  go lines;
  Mlds.System.close_handle h

(* The university schema with unique ssn values: [Daplex.University.scaled_rows]
   repeats the base population's ssn in every replica, so it cannot back
   point lookups. Persons 1..oltp_keys, ssn = 500000 + i; the first
   [oltp_employees] are employees (the first six of them faculty), the
   rest students. *)
let university_rows ~seed =
  let module U = Daplex.University in
  let st = rng ~seed 1 in
  let str s = U.Scalar (Abdm.Value.Str s) and int i = U.Scalar (Abdm.Value.Int i) in
  let base =
    List.filter
      (fun r -> r.U.row_type = "department" || r.U.row_type = "course")
      U.rows
  in
  let teaching =
    [| [ "c1"; "c2"; "c4" ]; [ "c2"; "c3" ]; [ "c5"; "c6" ]; [ "c6"; "c7" ];
       [ "c8"; "c9" ]; [ "c10"; "c11"; "c12" ] |]
  in
  let depts = [| "d1"; "d1"; "d2"; "d2"; "d3"; "d4" |] in
  let majors = [| "Computer Science"; "Mathematics"; "Physics"; "Operations Research" |] in
  let row row_type row_key row_isa row_values =
    { U.row_type; row_key; row_isa; row_values }
  in
  let persons =
    List.init oltp_keys (fun i ->
        let i = i + 1 in
        row "person" (Printf.sprintf "p%d" i) []
          [ "name", str (Printf.sprintf "n%06d" (Random.State.int st 1_000_000));
            "ssn", int (500_000 + i) ])
  in
  let employees =
    List.init oltp_employees (fun i ->
        let i = i + 1 in
        row "employee" (Printf.sprintf "e%d" i) [ "person", Printf.sprintf "p%d" i ]
          [ "salary", int (between st 20_000 90_000); "dependents", U.Scalars [] ])
  in
  let faculty =
    List.init 6 (fun i ->
        row "faculty" (Printf.sprintf "f%d" (i + 1))
          [ "employee", Printf.sprintf "e%d" (i + 1) ]
          [ "rank", str "full"; "dept", U.Ref depts.(i); "teaching", U.Refs teaching.(i) ])
  in
  let students =
    List.init (oltp_keys - oltp_employees) (fun i ->
        let p = oltp_employees + i + 1 in
        row "student" (Printf.sprintf "st%d" p) [ "person", Printf.sprintf "p%d" p ]
          [ "major", str majors.(i mod 4);
            "advisor", U.Ref (Printf.sprintf "f%d" ((i mod 6) + 1)) ])
  in
  base @ persons @ employees @ faculty @ students

let preload w ~seed sys =
  match w with
  | Oltp_point ->
    ok "uni"
      (Mlds.System.define_functional sys ~name:"uni" ~ddl:Daplex.University.ddl
         (university_rows ~seed));
    ok "pay" (Mlds.System.define_relational sys ~name:"pay");
    let st = rng ~seed 2 in
    run_script sys L_sql ~db:"pay"
      ("CREATE TABLE acct (id INT UNIQUE, owner CHAR(20), balance INT, note CHAR(20))"
      :: List.init oltp_keys (fun i ->
             Printf.sprintf "INSERT INTO acct VALUES (%d, 'o%d', %d, 'n0')" (i + 1)
               (Random.State.int st 100_000) (between st 0 1_000_000)));
    ok "med"
      (Mlds.System.define_hierarchical sys ~name:"med"
         ~ddl:
           "DATABASE med\n\
            SEGMENT patient (pname CHAR(20), pid INT)\n\
            SEGMENT visit PARENT patient (vdate CHAR(10), cost INT)");
    run_script sys L_dli ~db:"med"
      (List.concat
         (List.init dli_patients (fun i ->
              let pid = i + 1 in
              [ Printf.sprintf "ISRT patient (pname = 'pt%d', pid = %d)"
                  (Random.State.int st 100_000) pid;
                Printf.sprintf "ISRT patient(pid = %d) visit (vdate = 'v1', cost = %d)"
                  pid (between st 10 5000) ])))
  | Ingest_durable ->
    for c = 0 to clients - 1 do
      let db = Printf.sprintf "ing%d" c in
      ok db (Mlds.System.define_relational sys ~name:db);
      let st = rng ~seed (10 + c) in
      run_script sys L_abdl ~db
        (List.init ingest_preload (fun k ->
             Printf.sprintf "INSERT (<FILE, ev>, <k, %d>, <v, %d>, <payload, '%s'>)"
               (k + 1) (Random.State.int st 1_000_000)
               (String.make (between st 16 64) 'p')))
    done
  | Scan_mbds ->
    ok "shop" (Mlds.System.define_relational sys ~name:"shop");
    let st = rng ~seed 3 in
    let regions = [| "north"; "south"; "east"; "west" |] in
    run_script sys L_sql ~db:"shop"
      ("CREATE TABLE orders (id INT UNIQUE, cust INT, amount INT, region CHAR(8), u0 INT, u1 INT)"
      :: List.init scan_rows (fun i ->
             Printf.sprintf "INSERT INTO orders VALUES (%d, %d, %d, '%s', 0, 0)" (i + 1)
               (between st 1 scan_custs) (between st 1 10_000)
               regions.(Random.State.int st 4)))

(* What a stream needs to know about the preloaded state: the database
   keys of the employee records the oltp-point ABDL writes update. *)
type catalog = { employee_keys : int array }

let catalog w sys =
  match w with
  | Ingest_durable | Scan_mbds -> { employee_keys = [||] }
  | Oltp_point ->
    (match Mlds.System.kernel_of sys "uni" with
    | None -> failwith "catalog: no uni kernel"
    | Some k ->
      let keys =
        Mapping.Kernel.select k (Abdl.Parser.query "((FILE = employee))")
        |> List.map fst |> List.sort_uniq compare
      in
      { employee_keys = Array.of_list keys })

(* --- operation streams ------------------------------------------------------ *)

type kind = Read | Write | Checkpoint

type op = {
  kind : kind;
  lang : Mlds.System.language;
  db : string;
  login : bool;  (** open a new (lang, db) session before this op *)
  text : string;  (** statement text; empty for [Checkpoint] *)
  check : string option;
      (** for writes: a read in the same session type that shows the
          written value, run after recovery *)
}

type stream = {
  w : t;
  client : int;
  st : Random.State.t;
  cat : catalog;
  zipf : zipf option;
  mutable i : int;
  mutable left : int;  (** ops left in the current session burst *)
  mutable slots : (Mlds.System.language * string) list;
      (** sessions left in the current cycle: each cycle is a seeded
          shuffle of the workload's session weights, so every stretch of
          a run has the same language mix *)
  mutable lang : Mlds.System.language;
  mutable db : string;
  mutable next_k : int;  (** ingest: next private key to insert *)
  mutable writes : int;  (** writes since the last checkpoint *)
}

let stream w ~seed ~client cat =
  {
    w;
    client;
    st = rng ~seed (100 + client);
    cat;
    zipf =
      (match w with
      | Oltp_point -> Some (zipf ~seed ~n:oltp_keys ~s:0.9)
      | Ingest_durable | Scan_mbds -> None);
    i = 0;
    left = 0;
    slots = [];
    lang = L_abdl;
    db = "";
    next_k = ingest_preload + 1;
    writes = 0;
  }

(* a key of the preloaded range 1..n that belongs to this client *)
let private_key s n = (2 * Random.State.int s.st (n / 2)) + s.client + 1

let course_titles =
  List.filter_map
    (fun r ->
      match List.assoc_opt "title" r.Daplex.University.row_values with
      | Some (Daplex.University.Scalar (Abdm.Value.Str t)) -> Some t
      | _ -> None)
    Daplex.University.rows
  |> List.sort_uniq compare |> Array.of_list

let oltp_op s ~login =
  let key () =
    match s.zipf with Some z -> zipf_draw z s.st + 1 | None -> assert false
  in
  let ssn () = 500_000 + key () in
  (* writes ride only the ABDL, SQL and DL/I sessions, 13 of the 20
     session weights: 2/13 of their requests is the 10% write share *)
  let write = Random.State.int s.st 13 < 2 in
  let mk kind text check = { kind; lang = s.lang; db = s.db; login; text; check } in
  match s.lang with
  | L_abdl when write ->
    let keys = s.cat.employee_keys in
    let e = keys.(private_key s (Array.length keys) - 1) in
    mk Write
      (Printf.sprintf "UPDATE ((FILE = employee) AND (employee = %d)) (salary = %d)" e
         (between s.st 20_000 90_000))
      (Some (Printf.sprintf "RETRIEVE ((FILE = employee) AND (employee = %d)) (salary)" e))
  | L_abdl ->
    mk Read
      (Printf.sprintf "RETRIEVE ((FILE = person) AND (ssn = %d)) (name, ssn)" (ssn ()))
      None
  | L_daplex ->
    (* Daplex evaluates SUCH THAT entity by entity (23 ms over the 3000
       persons), so its point reads go to the 12 courses *)
    mk Read
      (Printf.sprintf
         "FOR EACH c IN course SUCH THAT title(c) = '%s' PRINT title(c), semester(c) END"
         course_titles.(Random.State.int s.st (Array.length course_titles)))
      None
  | L_codasyl ->
    mk Read
      (Printf.sprintf
         "MOVE %d TO ssn IN person\nFIND ANY person USING ssn IN person\nGET person"
         (ssn ()))
      None
  | L_sql when write ->
    let k = private_key s oltp_keys in
    mk Write
      (Printf.sprintf "UPDATE acct SET note = 'w%d' WHERE id = %d"
         (Random.State.int s.st 1_000_000) k)
      (Some (Printf.sprintf "SELECT id, note FROM acct WHERE id = %d" k))
  | L_sql ->
    mk Read (Printf.sprintf "SELECT id, owner, balance FROM acct WHERE id = %d" (key ())) None
  | L_dli when write ->
    let k = private_key s dli_patients in
    mk Write
      (Printf.sprintf "GU patient(pid = %d) visit(vdate = 'v1')\nREPL (cost = %d)" k
         (between s.st 10 5000))
      (Some (Printf.sprintf "GU patient(pid = %d) visit(vdate = 'v1')" k))
  | L_dli -> mk Read (Printf.sprintf "GU patient(pid = %d)" (between s.st 1 dli_patients)) None

(* ingest-durable: ~40% INSERTs of seeded 256 B..4 KiB payloads, ~40%
   UPDATEs of existing keys, ~20% reads biased to the newest keys. *)
let ingest_op s ~login =
  let mk kind text check = { kind; lang = s.lang; db = s.db; login; text; check } in
  let read_back k = Printf.sprintf "RETRIEVE ((FILE = ev) AND (k = %d)) (k, v, payload)" k in
  let r = Random.State.int s.st 100 in
  let last = s.next_k - 1 in
  if r < 40 then begin
    let k = s.next_k in
    s.next_k <- k + 1;
    let size = between s.st 256 4096 in
    let c = Char.chr (Char.code 'a' + Random.State.int s.st 26) in
    mk Write
      (Printf.sprintf "INSERT (<FILE, ev>, <k, %d>, <v, %d>, <payload, '%s'>)" k
         (Random.State.int s.st 1_000_000) (String.make size c))
      (Some (read_back k))
  end
  else if r < 80 then begin
    let k = between s.st 1 last in
    mk Write
      (Printf.sprintf "UPDATE ((FILE = ev) AND (k = %d)) (v = %d)" k
         (Random.State.int s.st 1_000_000))
      (Some (read_back k))
  end
  else
    (* geometric-ish recency bias: half the reads hit the last 16 keys *)
    let back = min (last - 1) (Random.State.int s.st (if Random.State.bool s.st then 16 else last)) in
    mk Read (Printf.sprintf "RETRIEVE ((FILE = ev) AND (k = %d)) (k, v)" (last - back)) None

(* scan-mbds: 48 read texts (12 per shape), fixed per seed, plus
   multi-record UPDATEs of the client's own attribute u<client>, which no
   read filters or projects. *)
let scan_reads ~seed =
  let st = rng ~seed 4 in
  let range () =
    let w = between st 3 30 in
    let a = between st 1 (scan_custs - w) in
    a, a + w
  in
  List.concat
    (List.init 12 (fun _ ->
         let a, b = range () and c, d = range () and e, f = range () in
         let x = between st 1000 9000 in
         [ ( Mlds.System.L_abdl,
             Printf.sprintf
               "RETRIEVE ((FILE = orders) AND (cust >= %d) AND (cust <= %d)) (id, cust, amount)"
               a b );
           ( L_abdl,
             Printf.sprintf
               "RETRIEVE ((FILE = orders) AND (amount >= %d)) (SUM(amount), COUNT(id)) BY region"
               x );
           L_sql, Printf.sprintf "SELECT id, cust, amount FROM orders WHERE cust >= %d AND cust <= %d" c d;
           ( L_sql,
             Printf.sprintf
               "SELECT region, SUM(amount), COUNT(*) FROM orders WHERE cust >= %d AND cust <= %d GROUP BY region"
               e f ) ]))
  |> Array.of_list

let scan_op s reads ~login =
  let mk kind text check = { kind; lang = s.lang; db = s.db; login; text; check } in
  let of_lang = Array.of_list (List.filter (fun (l, _) -> l = s.lang) (Array.to_list reads)) in
  if Random.State.int s.st 20 = 0 then begin
    let a = between s.st 1 8 * 40 in
    let lo = a and hi = a + 2 in
    let u = Printf.sprintf "u%d" s.client in
    let v = Random.State.int s.st 4 in
    let where = Printf.sprintf "(cust >= %d) AND (cust <= %d)" lo hi in
    let text, check =
      match s.lang with
      | L_sql ->
        ( Printf.sprintf "UPDATE orders SET %s = %d WHERE cust >= %d AND cust <= %d" u v lo hi,
          Printf.sprintf "SELECT id, %s FROM orders WHERE cust >= %d AND cust <= %d" u lo hi )
      | _ ->
        ( Printf.sprintf "UPDATE ((FILE = orders) AND %s) (%s = %d)" where u v,
          Printf.sprintf "RETRIEVE ((FILE = orders) AND %s) (id, %s)" where u )
    in
    mk Write text (Some check)
  end
  else mk Read (snd of_lang.(Random.State.int s.st (Array.length of_lang))) None

let languages = function
  | Oltp_point ->
    (* session weights out of 20: DL/I GU walks the hierarchic sequence,
       so it is kept to one burst in twenty *)
    Array.concat
      [ Array.make 6 (Mlds.System.L_abdl, "uni"); Array.make 3 (Mlds.System.L_daplex, "uni");
        Array.make 4 (Mlds.System.L_codasyl, "uni"); Array.make 6 (Mlds.System.L_sql, "pay");
        [| (Mlds.System.L_dli, "med") |] ]
  | Ingest_durable -> [||]
  | Scan_mbds -> [| (Mlds.System.L_abdl, "shop"); (L_sql, "shop") |]

(* Open the next session: ingest-durable keeps one ABDL session on the
   client's own database; the others take the next slot of the cycle. *)
let next_session s =
  match s.w with
  | Ingest_durable ->
    s.lang <- L_abdl;
    s.db <- Printf.sprintf "ing%d" s.client
  | Oltp_point | Scan_mbds ->
    if s.slots = [] then begin
      let ls = Array.copy (languages s.w) in
      for i = Array.length ls - 1 downto 1 do
        let j = Random.State.int s.st (i + 1) in
        let x = ls.(i) in
        ls.(i) <- ls.(j);
        ls.(j) <- x
      done;
      s.slots <- Array.to_list ls
    end;
    (match s.slots with
    | (l, db) :: rest ->
      s.lang <- l;
      s.db <- db;
      s.slots <- rest
    | [] -> assert false)

let next_op ~scan_reads s =
  let login = match s.w with Ingest_durable -> s.i = 0 | Oltp_point | Scan_mbds -> s.left = 0 in
  if login then begin
    next_session s;
    s.left <- burst
  end;
  s.left <- s.left - 1;
  s.i <- s.i + 1;
  let op =
    match s.w with
    | Oltp_point -> oltp_op s ~login
    | Ingest_durable -> ingest_op s ~login
    | Scan_mbds -> scan_op s scan_reads ~login
  in
  if op.kind = Write then s.writes <- s.writes + 1;
  op

let next_with ~scan_reads s =
  match checkpoint_every s.w with
  | Some n when s.client = 0 && s.writes >= n ->
    s.writes <- 0;
    s.i <- s.i + 1;
    { kind = Checkpoint; lang = s.lang; db = s.db; login = false; text = ""; check = None }
  | Some _ | None -> next_op ~scan_reads s

(* [ops w ~seed ~client cat] is the client's op generator: call it for
   the next op. *)
let ops w ~seed ~client cat =
  let s = stream w ~seed ~client cat in
  let scan_reads = match w with Scan_mbds -> scan_reads ~seed | _ -> [||] in
  fun () -> next_with ~scan_reads s

(* Whether a read's reply can change during a run. In oltp-point and
   scan-mbds no read filters or projects anything a write touches, so a
   read text has one reply for the whole run; ingest-durable reads the
   keys its writes insert and update. *)
let reads_see_writes = function Ingest_durable -> true | Oltp_point | Scan_mbds -> false

let kind_name = function Read -> "read" | Write -> "write" | Checkpoint -> "checkpoint"

(* One op as text — what the determinism test compares. *)
let render op =
  Printf.sprintf "%s %s %s%s %s" (kind_name op.kind)
    (Mlds.System.language_to_string op.lang)
    op.db
    (if op.login then " login" else "")
    op.text

type dbkey = int

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)
module Str_map = Map.Make (String)

(* Ordered secondary index for one (file, attribute): value -> posting
   list. Value.compare merges Int/Float spellings of the same number into
   one key (Int 3 and Float 3.0 are the same map key), so equality probes
   agree with Value.equal with no aliasing special cases, and in-order
   traversal serves the range predicates (< <= > >=). *)
module Value_map = Map.Make (Value)

type postings = Int_set.t Value_map.t

module Pair_map = Map.Make (struct
  type t = string * string

  let compare (f1, a1) (f2, a2) =
    match String.compare f1 f2 with 0 -> String.compare a1 a2 | c -> c
end)

(* The index directory: each (file, attribute) index built so far. An
   attribute starts unindexed; the first planned conjunction that wants
   its index builds it with one file scan. An index is complete for its
   (file, attribute) from then on — an empty posting inside it proves
   absence, the absence of an entry proves nothing. *)
type directory = postings Pair_map.t

type undo =
  | U_remove of dbkey
  | U_restore of dbkey * Record.t

(* Everything a reader needs, as one immutable value: each file's
   records in one key-ordered map (a record lives only in the map of the
   file its FILE keyword names; iteration is the ascending-dbkey order
   the CODASYL traversals want; a file whose records were all deleted
   keeps its empty map), the planner's cardinalities and the index
   directory. Readers take one [Atomic.get] and see a consistent store:
   a built index and the records it points at are always published
   together. *)
type state = {
  st_files : Record.t Int_map.t Str_map.t;
  st_counts : int Str_map.t;  (* live records per file, O(1) for the planner *)
  st_size : int;
  st_next_key : int;
  st_dir : directory;
}

type t = {
  store_name : string;
  indexed : bool;
  mutable journal : undo list option;  (* None = not in a transaction *)
  mutable shapes : Record.shape Str_map.t;  (* the last shape stored per file *)
  (* The one place live data lives. Mutators are single-owner (the store
     contract), but they still publish by CAS retry because a select
     builds the indexes it wants, and selects may run on several domains
     at once; the retry loop makes mutations and index builds
     linearizable. *)
  state : state Atomic.t;
  scans : int Atomic.t;
  (* observability: how selections were answered. Atomic because
     read-only operations may run concurrently: counters must not be the
     thing that makes a SELECT a data race. Mutations remain
     single-owner. *)
  sel_indexed : int Atomic.t;
  sel_scanned : int Atomic.t;
}

(* process-wide tallies, mirrored into the metrics registry so exporters
   and the CLI's .stats see them without holding a store handle *)
let c_indexed = Obs.Metrics.counter "abdm.select.indexed"

let c_scanned = Obs.Metrics.counter "abdm.select.scan"

(* planner observability: which access path each conjunction took, how
   many postings its access path intersected, how many indexes a first
   use built, and what fraction of fetched candidates the residual
   re-check then discarded (0 = the access path was exact) *)
let c_plan_index = Obs.Metrics.counter "abdm.plan.index"

let c_plan_file_scan = Obs.Metrics.counter "abdm.plan.file_scan"

let c_plan_store_scan = Obs.Metrics.counter "abdm.plan.store_scan"

let c_plan_postings = Obs.Metrics.counter "abdm.plan.postings_intersected"

let c_plan_auto = Obs.Metrics.counter "abdm.plan.auto_index"

let h_residual =
  Obs.Metrics.histogram
    ~buckets:[| 0.01; 0.05; 0.1; 0.25; 0.5; 0.75; 0.9; 1.0 |]
    "abdm.plan.residual_ratio"

let empty_state =
  {
    st_files = Str_map.empty;
    st_counts = Str_map.empty;
    st_size = 0;
    st_next_key = 1;
    st_dir = Pair_map.empty;
  }

let create ?(name = "kds") ?(indexed = true) () =
  {
    store_name = name;
    indexed;
    journal = None;
    shapes = Str_map.empty;
    state = Atomic.make empty_state;
    scans = Atomic.make 0;
    sel_indexed = Atomic.make 0;
    sel_scanned = Atomic.make 0;
  }

(* Publish [f st] by CAS. [f] must be pure in the state (it may re-run
   on a lost race); returning [st] physically unchanged publishes
   nothing. Side effects (undo logging, metric bumps) belong outside
   [f]. *)
let state_update store f =
  let rec go () =
    let cur = Atomic.get store.state in
    let next = f cur in
    if not (next == cur || Atomic.compare_and_set store.state cur next) then
      go ()
  in
  go ()

let name store = store.store_name

let file_of_record record =
  match Record.file record with
  | Some f -> f
  | None -> invalid_arg "Store: record has no FILE keyword"

let live_count st file =
  Option.value ~default:0 (Str_map.find_opt file st.st_counts)

let bump_count counts file d =
  Str_map.add file (Option.value ~default:0 (Str_map.find_opt file counts) + d)
    counts

(* --- the index directory -------------------------------------------------- *)

let posting_add postings value key =
  let cur =
    Option.value ~default:Int_set.empty (Value_map.find_opt value postings)
  in
  Value_map.add value (Int_set.add key cur) postings

let posting_remove postings value key =
  match Value_map.find_opt value postings with
  | None -> postings
  | Some set ->
    let set = Int_set.remove key set in
    if Int_set.is_empty set then Value_map.remove value postings
    else Value_map.add value set postings

let dir_index_add file key dir attr value =
  match Pair_map.find_opt (file, attr) dir with
  | Some m -> Pair_map.add (file, attr) (posting_add m value key) dir
  | None -> dir

let dir_index_remove file key dir attr value =
  match Pair_map.find_opt (file, attr) dir with
  | Some m -> Pair_map.add (file, attr) (posting_remove m value key) dir
  | None -> dir

let file_records st file =
  match Str_map.find file st.st_files with m -> m | exception Not_found -> Int_map.empty

(* The record live under [key]: a store holds few files, so each file's
   map is probed in turn. *)
let find_record st key =
  Str_map.fold
    (fun _ records found -> if Option.is_some found then found else Int_map.find_opt key records)
    st.st_files None

(* Every record of [st] in ascending key order, in one k-way pass over
   the files' maps: a cursor per file is its map's [Int_map.to_seq] at
   the next binding. A scan picks the cursor with the least head and
   bounds it by the least key among the other heads; that cursor then
   yields, forcing its tail, until its head reaches the bound, and only
   then are the heads scanned again — a file's run of consecutive keys
   costs one scan. The cursors are mutable, so the sequence is read
   once; the maps are the immutable state's, so a later mutation does
   not disturb it. *)
let seq_of_state st =
  let heads =
    Array.of_list (Str_map.fold (fun _ m acc -> Int_map.to_seq m () :: acc) st.st_files [])
  in
  let cur = ref (-1) and bound = ref max_int in
  let rec next () =
    match if !cur < 0 then Seq.Nil else heads.(!cur) with
    | Seq.Cons (((key, _) as binding), rest) when key < !bound ->
      heads.(!cur) <- rest ();
      Seq.Cons (binding, next)
    | _ ->
      let best_key = ref max_int in
      cur := -1;
      bound := max_int;
      for i = 0 to Array.length heads - 1 do
        match heads.(i) with
        | Seq.Cons ((key, _), _) when key < !best_key ->
          bound := !best_key; cur := i; best_key := key
        | Seq.Cons ((key, _), _) when key < !bound -> bound := key
        | _ -> ()
      done;
      if !cur < 0 then Seq.Nil else next ()
  in
  next

(* One file scan builds a complete index: every record holding the
   attribute is posted under its value. Pure in [st], so it can run
   inside a [state_update] retry. *)
let build_postings st file attr =
  Int_map.fold
    (fun key record m ->
      match Record.value_of record attr with
      | Some v -> posting_add m v key
      | None -> m)
    (file_records st file) Value_map.empty

(* --- record attachment (pure state transforms) ----------------------------- *)

let attach_state store st key record =
  let file = file_of_record record in
  let dir =
    if store.indexed then Record.fold (dir_index_add file key) st.st_dir record
    else st.st_dir
  in
  {
    st with
    st_files = Str_map.add file (Int_map.add key record (file_records st file)) st.st_files;
    st_counts = bump_count st.st_counts file 1;
    st_size = st.st_size + 1;
    st_dir = dir;
  }

let detach_state store st key record =
  let file = file_of_record record in
  let dir =
    if store.indexed then
      Record.fold (dir_index_remove file key) st.st_dir record
    else st.st_dir
  in
  {
    st with
    st_files = Str_map.add file (Int_map.remove key (file_records st file)) st.st_files;
    st_counts = bump_count st.st_counts file (-1);
    st_size = st.st_size - 1;
    st_dir = dir;
  }

(* Records of one file share one shape. A record whose shape lists the
   same attributes as the last one stored for its file is stored over
   that one: a map lookup, then a physical comparison, or one
   comparison of the attribute names when the producer built a fresh
   shape (an ABDL INSERT, WAL replay, a snapshot restore). A record of
   another layout makes its shape the file's. Only the store's single
   mutating owner reads or writes [shapes]. *)
let shared store record =
  let file = file_of_record record in
  match Option.bind (Str_map.find_opt file store.shapes) (Record.with_shape record) with
  | Some shared -> shared
  | None ->
    store.shapes <- Str_map.add file (Record.shape_of record) store.shapes;
    record

let log_undo store undo =
  match store.journal with
  | Some entries -> store.journal <- Some (undo :: entries)
  | None -> ()

let insert store record =
  let record = shared store record in
  let key = ref 0 in
  state_update store (fun st ->
      key := st.st_next_key;
      attach_state store
        { st with st_next_key = st.st_next_key + 1 }
        !key record);
  log_undo store (U_remove !key);
  !key

let insert_keyed store key record =
  let record = shared store record in
  state_update store (fun st ->
      (* every live key is below [st_next_key] *)
      if key < st.st_next_key && find_record st key <> None then
        invalid_arg
          (Printf.sprintf "Store.insert_keyed: key %d already live" key);
      let st =
        if key >= st.st_next_key then { st with st_next_key = key + 1 }
        else st
      in
      attach_state store st key record);
  log_undo store (U_remove key)

let get store key = find_record (Atomic.get store.state) key

let records_of_file store file =
  Int_map.bindings (file_records (Atomic.get store.state) file)

(* --- the planner ---------------------------------------------------------- *)

let is_file_pred (p : Predicate.t) =
  String.equal p.attribute Keyword.file_attribute

let indexable (p : Predicate.t) =
  (not (is_file_pred p))
  &&
  match p.op with
  | Predicate.Eq | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
    true
  | Predicate.Neq -> false

(* The postings inside one bound: above a lower bound ([>] [>=]) or
   below an upper bound ([<] [<=]), each one [Value_map.split]. Null
   sorts below every other value and never satisfies an ordered
   comparison, so [below] drops a Null key. *)
let above (p : Predicate.t) postings =
  let _, at, above = Value_map.split p.value postings in
  match p.op, at with
  | Predicate.Ge, Some s -> Value_map.add p.value s above
  | _ -> above

let below (p : Predicate.t) postings =
  let below, at, _ = Value_map.split p.value postings in
  let below = Value_map.remove Value.Null below in
  match p.op, at with
  | Predicate.Le, Some s -> Value_map.add p.value s below
  | _ -> below

let is_lower (p : Predicate.t) =
  match p.op with Predicate.Gt | Predicate.Ge -> true | _ -> false

let is_upper (p : Predicate.t) =
  match p.op with Predicate.Lt | Predicate.Le -> true | _ -> false

(* What one index lookup answers: a predicate, or a lower and an upper
   bound on one attribute read as one window. *)
type lookup =
  | Single of Predicate.t
  | Window of Predicate.t * Predicate.t  (* lower, upper *)

let lookup_preds = function Single p -> [ p ] | Window (lo, hi) -> [ lo; hi ]

let rec remove_first q = function
  | [] -> []
  | p :: rest -> if p == q then rest else p :: remove_first q rest

(* The other edge of [p]'s window: the first opposite bound on its
   attribute after it in the conjunction, when [p] is a bound. *)
let window_partner (p : Predicate.t) rest =
  if is_lower p || is_upper p then
    List.find_opt
      (fun (q : Predicate.t) ->
        String.equal q.attribute p.attribute
        && if is_lower p then is_upper q else is_lower q)
      rest
  else None

(* Candidate keys for one lookup out of a built index. Equality is one
   map lookup; a range or a window cuts the map at its bounds and
   unions the postings kept. The union is a thunk: the cost model only
   needs the cardinality (summed over the window without building any
   set), so an unselective range — exactly the case where the union
   would be as big as the file — is rejected without ever materialising
   it. A Null bound matches nothing. *)
let probe_keys postings lookup =
  let window kind kept =
    let card = Value_map.fold (fun _ set acc -> acc + Int_set.cardinal set) kept 0 in
    Some
      ( kind,
        card,
        fun () -> Value_map.fold (fun _ set acc -> Int_set.union set acc) kept Int_set.empty )
  in
  let empty kind = Some (kind, 0, fun () -> Int_set.empty) in
  match lookup with
  | Window (lo, hi) ->
    if Value.is_null lo.value || Value.is_null hi.value then empty Plan.Window
    else window Plan.Window (below hi (above lo postings))
  | Single p -> (
    match p.op with
    | Predicate.Eq ->
      let keys =
        Option.value ~default:Int_set.empty (Value_map.find_opt p.value postings)
      in
      Some (Plan.Point, Int_set.cardinal keys, fun () -> keys)
    | Predicate.Neq -> None
    | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge ->
      if Value.is_null p.value then empty Plan.Range
      else window Plan.Range ((if is_lower p then above else below) p postings))

(* Plan one conjunction against a state snapshot, with the keys an
   index probe intersected (empty for a scan). Pure: index builds
   happen separately (select runs them first, explain not at all). Cost
   model, in posting-cardinality terms:
   - no FILE predicate: nothing narrows the search — scan the store;
   - a posting participates only if [2 * card < file_rows] (less
     selective than half the file and the merge bookkeeping costs more
     than the re-check it saves);
   - participating postings are intersected smallest-first;
   - no participating posting: flip to the plain file scan. *)
let plan_conjunction store st (preds : Query.conjunction) =
  match Query.file_of_conjunction preds with
  | None ->
    ( { Plan.conjunction = preds;
        access = Plan.Store_scan { rows = st.st_size };
        residual = preds },
      Int_set.empty )
  | Some file ->
    let file_rows = live_count st file in
    (* one lookup per indexable predicate, a bound and its window
       partner together *)
    let rec walk probes residual = function
      | [] -> probes, residual
      | (p : Predicate.t) :: rest ->
        if is_file_pred p then walk probes residual rest  (* consumed: file choice *)
        else if not (store.indexed && indexable p) then walk probes (p :: residual) rest
        else
          let lookup, rest =
            match window_partner p rest with
            | Some q -> (if is_lower p then Window (p, q) else Window (q, p)), remove_first q rest
            | None -> Single p, rest
          in
          let found =
            match Pair_map.find_opt (file, p.attribute) st.st_dir with
            | Some postings -> probe_keys postings lookup
            | None -> None
          in
          match found with
          | Some (kind, card, keys) -> walk ((lookup, kind, card, keys) :: probes) residual rest
          | None -> walk probes (List.rev_append (lookup_preds lookup) residual) rest
    in
    let probes, residual = walk [] [] preds in
    let selective, spilled =
      List.partition
        (fun (_, _, card, _) -> 2 * card < file_rows)
        (List.rev probes)
    in
    let residual =
      List.rev residual @ List.concat_map (fun (l, _, _, _) -> lookup_preds l) spilled
    in
    (match selective with
    | [] ->
      ( { Plan.conjunction = preds;
          access = Plan.File_scan { file; rows = file_rows };
          residual },
        Int_set.empty )
    | _ :: _ ->
      let sorted =
        List.sort
          (fun (_, _, a, _) (_, _, b, _) -> Int.compare a b)
          selective
      in
      (* only the selective probes' unions are ever materialised *)
      let keys =
        match sorted with
        | (_, _, _, first) :: rest ->
          List.fold_left
            (fun acc (_, _, _, s) -> Int_set.inter acc (s ()))
            (first ()) rest
        | [] -> assert false
      in
      let probes =
        List.map
          (fun (lookup, kind, card, _) ->
            let pred, upper =
              match lookup with Single p -> p, None | Window (lo, hi) -> lo, Some hi
            in
            { Plan.probe_pred = pred; probe_upper = upper; probe_kind = kind; probe_card = card })
          sorted
      in
      ( { Plan.conjunction = preds;
          access =
            Plan.Index_probe
              { file; probes; rows = Int_set.cardinal keys; file_rows };
          residual },
        keys ))

(* Build every index [preds] wants that the directory lacks, each with
   one file scan, so that the conjunction's plan can use it. The scan
   reads every live record of the file, and the scan tally counts them.
   A conjunction without a FILE predicate scans the store and wants
   none. *)
let build_wanted store preds =
  match Query.file_of_conjunction preds with
  | Some file when store.indexed ->
    List.iter
      (fun (p : Predicate.t) ->
        if indexable p then begin
          let key = file, p.attribute and read = ref None in
          state_update store (fun st ->
              read := None;
              if Pair_map.mem key st.st_dir then st
              else begin
                read := Some (live_count st file);
                { st with st_dir = Pair_map.add key (build_postings st file p.attribute) st.st_dir }
              end);
          match !read with
          | Some records ->
            ignore (Atomic.fetch_and_add store.scans records);
            Obs.Metrics.incr c_plan_auto
          | None -> ()
        end)
      preds
  | _ -> ()

(* Side-effect-free plan for the whole query — the .explain entry point.
   Read-only: safe concurrently with other readers, and deliberately
   building no index (explaining a query must not change the store). *)
let explain store query =
  let st = Atomic.get store.state in
  List.map (fun preds -> fst (plan_conjunction store st preds)) query

(* The tallies one conjunction leaves: its access path, the postings it
   intersected, and the share of tested candidates the re-check
   discarded. *)
let charge store (access : Plan.access) ~probes ~tested ~added =
  (match access with
  | Plan.Index_probe _ ->
    Atomic.incr store.sel_indexed;
    Obs.Metrics.incr c_indexed;
    Obs.Metrics.incr c_plan_index;
    Obs.Metrics.incr ~by:probes c_plan_postings
  | Plan.File_scan _ | Plan.Store_scan _ ->
    Atomic.incr store.sel_scanned;
    Obs.Metrics.incr c_scanned;
    Obs.Metrics.incr
      (match access with Plan.Store_scan _ -> c_plan_store_scan | _ -> c_plan_file_scan));
  if tested > 0 then
    Obs.Metrics.observe h_residual
      (float_of_int (tested - added) /. float_of_int tested)

(* Every candidate of [access] that is still live, in ascending key
   order: an index probe's [keys] are looked up in its file's map, a
   file is its map, the store is every file's map merged by key, so
   each candidate comes once. *)
let iter_candidates st (access : Plan.access) keys f =
  match access with
  | Plan.Index_probe { file; _ } ->
    let records = file_records st file in
    Int_set.iter
      (fun key -> match Int_map.find_opt key records with Some r -> f key r | None -> ())
      keys
  | Plan.File_scan { file; _ } -> Int_map.iter f (file_records st file)
  | Plan.Store_scan _ -> Seq.iter (fun (key, record) -> f key record) (seq_of_state st)

let select store query =
  (* build the wanted indexes first, then fix the state the whole
     selection runs against, so a just-built index serves the query
     that built it *)
  List.iter (build_wanted store) query;
  let st = Atomic.get store.state in
  (* [keep] gets each match of one conjunction that [fresh] admits *)
  let run_conjunction ~fresh ~keep preds =
    let step, keys = plan_conjunction store st preds in
    let tested = ref 0 and added = ref 0 in
    iter_candidates st step.Plan.access keys (fun key record ->
        if fresh key then begin
          incr tested;
          Atomic.incr store.scans;
          if Query.satisfies query record then begin
            keep key record;
            incr added
          end
        end);
    let probes =
      match step.Plan.access with
      | Plan.Index_probe { probes; _ } -> List.length probes
      | Plan.File_scan _ | Plan.Store_scan _ -> 0
    in
    charge store step.Plan.access ~probes ~tested:!tested ~added:!added
  in
  match query with
  | [ preds ] ->
    (* one conjunction meets each candidate once, in key order: its
       matches are the result as they come *)
    let matches = ref [] in
    run_conjunction preds
      ~fresh:(fun _ -> true)
      ~keep:(fun key record -> matches := (key, record) :: !matches);
    List.rev !matches
  | _ ->
    (* a record several conjunctions match is tested and kept once *)
    let matched = ref Int_map.empty in
    List.iter
      (run_conjunction
         ~fresh:(fun key -> not (Int_map.mem key !matched))
         ~keep:(fun key record -> matched := Int_map.add key record !matched))
      query;
    Int_map.bindings !matched

(* the indexable predicate of [preds] if it has exactly one *)
let rec sole_indexable = function
  | [] -> None
  | p :: rest ->
    if not (indexable p) then sole_indexable rest
    else if List.exists indexable rest then None
    else Some p

(* [select store query <> []] for the UNIQUE probe's shape — one
   conjunction whose only indexable predicate is an equality with a built
   index — without a plan, a key set or rows: the candidates are that
   posting, or the file when the planner would scan it (a posting of at
   least half the file). Every candidate is re-checked, as [select] does,
   so the scan tally, plan counters and residual ratio come out the same.
   Anything else (no index yet, so the build runs) is [select]. *)
let exists store query =
  let st = Atomic.get store.state in
  let candidates =
    match query with
    | [ preds ] when store.indexed -> (
      match Query.file_of_conjunction preds, sole_indexable preds with
      | Some file, Some ({ op = Predicate.Eq; _ } as p) -> (
        match Pair_map.find_opt (file, p.attribute) st.st_dir with
        | Some postings ->
          let keys =
            Option.value ~default:Int_set.empty
              (Value_map.find_opt p.value postings)
          in
          (* [plan_conjunction]'s rule: a posting of half the file or
             more loses to the file scan; the one posting is charged,
             not listed *)
          let rows = Int_set.cardinal keys and file_rows = live_count st file in
          Some
            ( (if 2 * rows < file_rows then
                 Plan.Index_probe { file; probes = []; rows; file_rows }
               else Plan.File_scan { file; rows = file_rows }),
              keys )
        | None -> None)
      | _ -> None)
    | _ -> None
  in
  match candidates with
  | None -> select store query <> []
  | Some (access, keys) ->
    let tested = ref 0 and found = ref 0 in
    iter_candidates st access keys (fun _ record ->
        incr tested;
        if Query.satisfies query record then incr found);
    ignore (Atomic.fetch_and_add store.scans !tested);
    charge store access ~probes:1 ~tested:!tested ~added:!found;
    !found > 0

let delete_key store key =
  let removed = ref None in
  state_update store (fun st ->
      removed := find_record st key;
      Option.fold ~none:st ~some:(detach_state store st key) !removed);
  match !removed with
  | None -> false
  | Some record ->
    log_undo store (U_restore (key, record));
    true

let delete store query =
  let victims = select store query in
  List.iter (fun (key, _) -> ignore (delete_key store key)) victims;
  List.length victims

let replace store key record =
  let record = shared store record in
  let old_ref = ref None in
  state_update store (fun st ->
      match find_record st key with
      | None -> raise Not_found
      | Some old ->
        old_ref := Some old;
        attach_state store (detach_state store st key old) key record);
  Option.iter (fun old -> log_undo store (U_restore (key, old))) !old_ref

let update store query modifiers =
  let targets = select store query in
  let apply_all record =
    List.fold_left (fun r m -> Modifier.apply m r) record modifiers
  in
  List.iter (fun (key, record) -> replace store key (apply_all record))
    targets;
  List.length targets

let file_names store =
  List.rev (Str_map.fold (fun file _ acc -> file :: acc) (Atomic.get store.state).st_files [])

let count store file = live_count (Atomic.get store.state) file

let size store = (Atomic.get store.state).st_size

let clear store =
  state_update store (fun _ -> empty_state);
  store.shapes <- Str_map.empty;
  Atomic.set store.scans 0;
  (* a cleared store has nothing to undo: stale journal entries would
     resurrect pre-clear records on rollback and re-attach keys below
     the reset next_key, corrupting key uniqueness — drop them (the
     transaction, if one is open, stays open over the now-empty store) *)
  if store.journal <> None then store.journal <- Some [];
  Atomic.set store.sel_indexed 0;
  Atomic.set store.sel_scanned 0

let to_seq store = seq_of_state (Atomic.get store.state)

let next_key store = (Atomic.get store.state).st_next_key

let attach store key record =
  state_update store (fun st -> attach_state store st key record)

let begin_transaction store =
  match store.journal with
  | Some _ -> invalid_arg "Store.begin_transaction: already in a transaction"
  | None -> store.journal <- Some []

let commit store = store.journal <- None

let rollback store =
  match store.journal with
  | None -> ()
  | Some entries ->
    (* stop journaling before replaying the inverses *)
    store.journal <- None;
    List.iter
      (fun undo ->
        match undo with
        | U_remove key -> ignore (delete_key store key)
        | U_restore (key, record) ->
          if find_record (Atomic.get store.state) key <> None then
            replace store key record
          else attach store key record)
      entries

let in_transaction store = store.journal <> None

let scan_count store = Atomic.get store.scans

let indexed_selects store = Atomic.get store.sel_indexed

let scanned_selects store = Atomic.get store.sel_scanned

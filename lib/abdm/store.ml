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

(* The index directory. An attribute starts unindexed; each planned
   conjunction that wanted its index and found none bumps the heat, and
   crossing the auto-index threshold builds the index with one file scan.
   [Built] is complete for its (file, attribute) from then on — an empty
   posting inside a built index proves absence, the absence of an entry
   proves nothing. *)
type dir_entry =
  | Built of postings
  | Heat of int

type directory = dir_entry Pair_map.t

type undo =
  | U_remove of dbkey
  | U_restore of dbkey * Record.t

(* Everything a reader needs, as one immutable value: records, the
   per-file key sets (exact — keys are removed on delete, and Int_set
   iteration is the ascending-dbkey order the CODASYL traversals want),
   the planner's cardinalities and the index directory. Readers take one
   [Atomic.get] and see a consistent store: a built index and the
   records it points at are always published together. *)
type state = {
  st_records : Record.t Int_map.t;
  st_files : Int_set.t Str_map.t;
  st_counts : int Str_map.t;  (* live records per file, O(1) for the planner *)
  st_size : int;
  st_next_key : int;
  st_dir : directory;
}

type t = {
  store_name : string;
  indexed : bool;
  auto_threshold : int;
  mutable journal : undo list option;  (* None = not in a transaction *)
  mutable shapes : Record.shape Str_map.t;  (* the last shape stored per file *)
  (* The one place live data lives. Mutators are single-owner (the store
     contract), but they still publish by CAS retry because the heat
     tracker runs inside read-only selects, which may run on several
     domains at once; the retry loop makes mutations and heat
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
   many postings its access path intersected, how many indexes the heat
   tracker built, and what fraction of fetched candidates the residual
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

let default_auto_threshold = 3

let empty_state =
  {
    st_records = Int_map.empty;
    st_files = Str_map.empty;
    st_counts = Str_map.empty;
    st_size = 0;
    st_next_key = 1;
    st_dir = Pair_map.empty;
  }

let create ?(name = "kds") ?(indexed = true)
    ?(auto_index_threshold = default_auto_threshold) () =
  {
    store_name = name;
    indexed;
    auto_threshold = max 1 auto_index_threshold;
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

let auto_index_threshold store = store.auto_threshold

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
  | Some (Built m) ->
    Pair_map.add (file, attr) (Built (posting_add m value key)) dir
  | Some (Heat _) | None -> dir

let dir_index_remove file key dir attr value =
  match Pair_map.find_opt (file, attr) dir with
  | Some (Built m) ->
    Pair_map.add (file, attr) (Built (posting_remove m value key)) dir
  | Some (Heat _) | None -> dir

let keys_of_file st file =
  Option.value ~default:Int_set.empty (Str_map.find_opt file st.st_files)

let records_of_file_state st file =
  Int_set.fold
    (fun key acc ->
      match Int_map.find_opt key st.st_records with
      | Some record -> (key, record) :: acc
      | None -> acc)
    (keys_of_file st file) []
  |> List.rev

(* One file scan builds a complete index: every record holding the
   attribute is posted under its value. Pure in [st], so it can run
   inside a [state_update] retry. *)
let build_postings st file attr =
  List.fold_left
    (fun m (key, record) ->
      match Record.value_of record attr with
      | Some v -> posting_add m v key
      | None -> m)
    Value_map.empty
    (records_of_file_state st file)

(* A planner miss on (file, attr): bump the heat and, on crossing the
   threshold, build the index — the "auto-create indexes on hot
   attributes" path. *)
let note_missing_index store file attr =
  let built = ref false in
  state_update store (fun st ->
      built := false;
      match Pair_map.find_opt (file, attr) st.st_dir with
      | Some (Built _) -> st  (* raced: already built *)
      | (Some (Heat _) | None) as entry ->
        let heat = match entry with Some (Heat n) -> n + 1 | _ -> 1 in
        if heat >= store.auto_threshold then begin
          built := true;
          {
            st with
            st_dir =
              Pair_map.add (file, attr)
                (Built (build_postings st file attr))
                st.st_dir;
          }
        end
        else
          {
            st with
            st_dir = Pair_map.add (file, attr) (Heat heat) st.st_dir;
          });
  if !built then Obs.Metrics.incr c_plan_auto

(* --- record attachment (pure state transforms) ----------------------------- *)

let attach_state store st key record =
  let file = file_of_record record in
  let dir =
    if store.indexed then Record.fold (dir_index_add file key) st.st_dir record
    else st.st_dir
  in
  {
    st with
    st_records = Int_map.add key record st.st_records;
    st_files = Str_map.add file (Int_set.add key (keys_of_file st file)) st.st_files;
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
    st_records = Int_map.remove key st.st_records;
    st_files =
      Str_map.add file (Int_set.remove key (keys_of_file st file)) st.st_files;
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
      if Int_map.mem key st.st_records then
        invalid_arg
          (Printf.sprintf "Store.insert_keyed: key %d already live" key);
      let st =
        if key >= st.st_next_key then { st with st_next_key = key + 1 }
        else st
      in
      attach_state store st key record);
  log_undo store (U_remove key)

let get store key = Int_map.find_opt key (Atomic.get store.state).st_records

let records_of_file store file =
  records_of_file_state (Atomic.get store.state) file

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

(* How the chosen access path's candidates are produced at run time. *)
type source =
  | Src_store
  | Src_file of string
  | Src_keys of Int_set.t

(* Plan one conjunction against a state snapshot. Pure: heat/auto-
   build side effects happen separately (select runs them first, explain
   not at all). Cost model, in posting-cardinality terms:
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
      Src_store )
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
            | Some (Built postings) -> probe_keys postings lookup
            | Some (Heat _) | None -> None
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
        Src_file file )
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
        Src_keys keys ))

(* Heat every indexable predicate whose index is missing, building it
   once the heat crosses the threshold. *)
let heat_conjunction store preds =
  if store.indexed then begin
    match Query.file_of_conjunction preds with
    | None -> ()
    | Some file ->
      List.iter
        (fun (p : Predicate.t) ->
          if indexable p then
            match
              Pair_map.find_opt (file, p.attribute)
                (Atomic.get store.state).st_dir
            with
            | Some (Built _) -> ()
            | Some (Heat _) | None ->
              note_missing_index store file p.attribute)
        preds
  end

(* Side-effect-free plan for the whole query — the .explain entry point.
   Read-only: safe concurrently with other readers, and deliberately not
   heating the auto-index tracker (explaining a query must not change how
   it would run). *)
let explain store query =
  let st = Atomic.get store.state in
  List.map (fun preds -> fst (plan_conjunction store st preds)) query

(* The tallies one conjunction leaves: its access path, the postings it
   intersected, and the share of tested candidates the re-check
   discarded. *)
let charge store source ~probes ~tested ~added =
  (match source with
  | Src_keys _ ->
    Atomic.incr store.sel_indexed;
    Obs.Metrics.incr c_indexed;
    Obs.Metrics.incr c_plan_index;
    Obs.Metrics.incr ~by:probes c_plan_postings
  | Src_file _ ->
    Atomic.incr store.sel_scanned;
    Obs.Metrics.incr c_scanned;
    Obs.Metrics.incr c_plan_file_scan
  | Src_store ->
    Atomic.incr store.sel_scanned;
    Obs.Metrics.incr c_scanned;
    Obs.Metrics.incr c_plan_store_scan);
  if tested > 0 then
    Obs.Metrics.observe h_residual
      (float_of_int (tested - added) /. float_of_int tested)

let select store query =
  (* heat the tracker first (it may auto-build), then fix the state
     the whole selection runs against: live-after-heating, so a
     just-built index serves the query that built it *)
  List.iter (fun preds -> heat_conjunction store preds) query;
  let st = Atomic.get store.state in
  let module Key_set = Int_set in
  let matched = ref Key_set.empty in
  let run_conjunction preds =
    let step, source = plan_conjunction store st preds in
    let tested = ref 0 in
    let added = ref 0 in
    let test key =
      if not (Key_set.mem key !matched) then begin
        match Int_map.find_opt key st.st_records with
        | None -> ()
        | Some record ->
          incr tested;
          Atomic.incr store.scans;
          if Query.satisfies query record then begin
            matched := Key_set.add key !matched;
            incr added
          end
      end
    in
    (match source with
    | Src_keys keys -> Key_set.iter test keys
    | Src_file file -> Int_set.iter test (keys_of_file st file)
    | Src_store -> Int_map.iter (fun key _ -> test key) st.st_records);
    let probes =
      match step.Plan.access with
      | Plan.Index_probe { probes; _ } -> List.length probes
      | Plan.File_scan _ | Plan.Store_scan _ -> 0
    in
    charge store source ~probes ~tested:!tested ~added:!added
  in
  List.iter run_conjunction query;
  Key_set.fold
    (fun key acc ->
      match Int_map.find_opt key st.st_records with
      | Some record -> (key, record) :: acc
      | None -> acc)
    !matched []
  |> List.rev

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
   Anything else (no index yet, so heating and the auto-build run) is
   [select]. *)
let exists store query =
  let st = Atomic.get store.state in
  let source =
    match query with
    | [ preds ] when store.indexed -> (
      match Query.file_of_conjunction preds, sole_indexable preds with
      | Some file, Some ({ op = Predicate.Eq; _ } as p) -> (
        match Pair_map.find_opt (file, p.attribute) st.st_dir with
        | Some (Built postings) ->
          let keys =
            Option.value ~default:Int_set.empty
              (Value_map.find_opt p.value postings)
          in
          (* [plan_conjunction]'s rule: a posting of half the file or
             more loses to the file scan *)
          Some
            (if 2 * Int_set.cardinal keys < live_count st file then
               Src_keys keys, keys
             else Src_file file, keys_of_file st file)
        | Some (Heat _) | None -> None)
      | _ -> None)
    | _ -> None
  in
  match source with
  | None -> select store query <> []
  | Some (source, candidates) ->
    let tested = ref 0 and found = ref 0 in
    let test key =
      match Int_map.find_opt key st.st_records with
      | None -> ()
      | Some record ->
        incr tested;
        if Query.satisfies query record then incr found
    in
    Int_set.iter test candidates;
    ignore (Atomic.fetch_and_add store.scans !tested);
    charge store source ~probes:1 ~tested:!tested ~added:!found;
    !found > 0

let delete_key store key =
  let removed = ref None in
  state_update store (fun st ->
      match Int_map.find_opt key st.st_records with
      | None ->
        removed := None;
        st
      | Some record ->
        removed := Some record;
        detach_state store st key record);
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
      match Int_map.find_opt key st.st_records with
      | None -> raise Not_found
      | Some old ->
        old_ref := Some old;
        attach_state store (detach_state store st key old) key record);
  match !old_ref with
  | Some old -> log_undo store (U_restore (key, old))
  | None -> ()

let update store query modifiers =
  let targets = select store query in
  let apply_all record =
    List.fold_left (fun r m -> Modifier.apply m r) record modifiers
  in
  List.iter (fun (key, record) -> replace store key (apply_all record))
    targets;
  List.length targets

let file_names store =
  Str_map.fold
    (fun file _ acc -> file :: acc)
    (Atomic.get store.state).st_files []
  |> List.sort_uniq String.compare

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

let to_seq store = Int_map.to_seq (Atomic.get store.state).st_records

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
          if Int_map.mem key (Atomic.get store.state).st_records then
            replace store key record
          else attach store key record)
      entries

let in_transaction store = store.journal <> None

let scan_count store = Atomic.get store.scans

let indexed_selects store = Atomic.get store.sel_indexed

let scanned_selects store = Atomic.get store.sel_scanned

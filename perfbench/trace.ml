(* In-memory spans recorded by the benchmark around its calls into each
   layer. A span names its parent; spans of one operation share [op].
   Nothing here reaches into the program: the program's own spans are
   only read (and re-parented) when the replay collects them.

   Every span is folded into per-name totals as it closes; the first
   [kept_cap] spans are also kept for the span file. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;
  name : string;
  start : float;
  dur : float;
}

type totals = { mutable count : int; mutable total : float; mutable self : float }

type t = {
  mutable kept : span list;
  mutable n_kept : int;
  mutable next : int;
  open_children : (int, (float * float) list) Hashtbl.t;
      (** intervals of the closed children of each span not yet closed *)
  by_name : (string, totals) Hashtbl.t;
}

let kept_cap = 200_000

(* [base] keeps ids distinct between traces that are merged later *)
let create ?(base = 0) () =
  { kept = []; n_kept = 0; next = base + 1; open_children = Hashtbl.create 64;
    by_name = Hashtbl.create 64 }

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> total, Some (a, b)
        | Some (ca, cb) when a <= cb -> total, Some (ca, Float.max cb b)
        | Some (ca, cb) -> total +. (cb -. ca), Some (a, b))
      (0., None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Record a closed span; its children must have been recorded first. Its
   self time is its duration minus the union of its children's. *)
let add t s =
  let kids = Option.value ~default:[] (Hashtbl.find_opt t.open_children s.id) in
  Hashtbl.remove t.open_children s.id;
  let self = s.dur -. covered ~lo:s.start ~hi:(s.start +. s.dur) kids in
  if s.parent <> 0 then
    Hashtbl.replace t.open_children s.parent
      ((s.start, s.start +. s.dur)
      :: Option.value ~default:[] (Hashtbl.find_opt t.open_children s.parent));
  let tot =
    match Hashtbl.find_opt t.by_name s.name with
    | Some tot -> tot
    | None ->
      let tot = { count = 0; total = 0.; self = 0. } in
      Hashtbl.replace t.by_name s.name tot;
      tot
  in
  tot.count <- tot.count + 1;
  tot.total <- tot.total +. s.dur;
  tot.self <- tot.self +. self;
  if t.n_kept < kept_cap then begin
    t.kept <- s :: t.kept;
    t.n_kept <- t.n_kept + 1
  end

(* [with_span t ~op ~parent name f] times [f id] as one span; [f] gets
   the new span's id to parent its children. *)
let with_span t ~op ~parent name f =
  let id = fresh t in
  let start = Unix.gettimeofday () in
  let finish () = add t { id; parent; op; name; start; dur = Unix.gettimeofday () -. start } in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Graft a program span tree (Obs.Span) under [parent]. *)
let rec graft t ~op ~parent (s : Obs.Span.t) =
  let id = fresh t in
  List.iter (graft t ~op ~parent:id) s.children;
  add t { id; parent; op; name = s.Obs.Span.span_name; start = s.start_s; dur = s.dur_s }

(* Fold another trace's totals and kept spans into [t]. *)
let merge t other =
  Hashtbl.iter
    (fun name o ->
      match Hashtbl.find_opt t.by_name name with
      | Some tot ->
        tot.count <- tot.count + o.count;
        tot.total <- tot.total +. o.total;
        tot.self <- tot.self +. o.self
      | None -> Hashtbl.replace t.by_name name { count = o.count; total = o.total; self = o.self })
    other.by_name;
  t.kept <- other.kept @ t.kept

(* Per span name: (count, total seconds, total self seconds), by name. *)
let summary t =
  Hashtbl.fold (fun name o acc -> (name, (o.count, o.total, o.self)) :: acc) t.by_name []
  |> List.sort compare

let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%s,\"start_s\":%.6f,\"dur_us\":%.3f}\n"
            s.id s.parent s.op (Obs.Json.quote s.name) s.start (s.dur *. 1e6))
        (List.rev t.kept))

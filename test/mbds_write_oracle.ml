(* The MBDS write path that the closure-free [Mbds.Controller.insert] and
   [insert_unique] replaced, over plain stores with the controller's
   round-robin placement and default cost model: the oracle of the
   MBDS-write property. Each backend keeps the tallies the controller
   publishes as its [mbds.*.scanned] and [mbds.*.written] counters, and
   [stats] the controller's request count and modelled times. *)

type t = {
  backends : Abdm.Store.t array;
  stats : Mbds.Stats.t;
  scanned : int array;
  written : int array;
  mutable next_key : int;
}

let create n =
  {
    backends = Array.init n (fun _ -> Abdm.Store.create ());
    stats = Mbds.Stats.create ();
    scanned = Array.make n 0;
    written = Array.make n 0;
    next_key = 1;
  }

let store_next t record ~scanned =
  let key = t.next_key in
  t.next_key <- key + 1;
  let idx = key mod Array.length t.backends in
  Abdm.Store.insert_keyed t.backends.(idx) key record;
  let backend_work =
    Array.to_list (Array.mapi (fun i s -> s, if i = idx then 1 else 0) scanned)
  in
  t.written.(idx) <- t.written.(idx) + 1;
  Mbds.Stats.record t.stats
    (Mbds.Cost.response_time Mbds.Cost.default ~backend_work ~results:0);
  key

let insert t record =
  store_next t record ~scanned:(Array.make (Array.length t.backends) 0)

let insert_unique t record probes =
  let n = Array.length t.backends in
  let scanned = Array.make n 0 in
  let clash i =
    let b = t.backends.(i) in
    let scans0 = Abdm.Store.scan_count b in
    let hit = List.exists (Abdm.Store.exists b) probes in
    scanned.(i) <- Abdm.Store.scan_count b - scans0;
    t.scanned.(i) <- t.scanned.(i) + scanned.(i);
    hit
  in
  let rec any_clash i = i < n && (clash i || any_clash (i + 1)) in
  if any_clash 0 then begin
    let backend_work = Array.to_list (Array.map (fun s -> s, 0) scanned) in
    Mbds.Stats.record t.stats
      (Mbds.Cost.response_time Mbds.Cost.default ~backend_work ~results:0);
    None
  end
  else Some (store_next t record ~scanned)

(* (scanned, written, records) per backend, as [Controller.backend_loads] *)
let backend_loads t =
  List.init (Array.length t.backends) (fun i ->
      t.scanned.(i), t.written.(i), Abdm.Store.size t.backends.(i))

let to_list t =
  Array.to_list t.backends
  |> List.concat_map (fun b -> List.of_seq (Abdm.Store.to_seq b))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* The MBDS write path that the closure-free [Mbds.Controller.insert] and
   [insert_unique] replaced, over plain stores with the controller's
   round-robin placement: the oracle of the MBDS-write property. Each
   backend keeps the tallies the controller publishes as its
   [mbds.*.scanned] and [mbds.*.written] counters. *)

type t = {
  backends : Abdm.Store.t array;
  scanned : int array;
  written : int array;
  mutable next_key : int;
}

let create n =
  {
    backends = Array.init n (fun _ -> Abdm.Store.create ());
    scanned = Array.make n 0;
    written = Array.make n 0;
    next_key = 1;
  }

let insert t record =
  let key = t.next_key in
  t.next_key <- key + 1;
  let idx = key mod Array.length t.backends in
  Abdm.Store.insert_keyed t.backends.(idx) key record;
  t.written.(idx) <- t.written.(idx) + 1;
  key

let insert_unique t record probes =
  let clash i =
    let b = t.backends.(i) in
    let scans0 = Abdm.Store.scan_count b in
    let hit = List.exists (Abdm.Store.exists b) probes in
    t.scanned.(i) <- t.scanned.(i) + Abdm.Store.scan_count b - scans0;
    hit
  in
  let rec any_clash i =
    i < Array.length t.backends && (clash i || any_clash (i + 1))
  in
  if any_clash 0 then None else Some (insert t record)

(* (scanned, written, records) per backend, as [Controller.backend_loads] *)
let backend_loads t =
  List.init (Array.length t.backends) (fun i ->
      t.scanned.(i), t.written.(i), Abdm.Store.size t.backends.(i))

let to_list t =
  Array.to_list t.backends
  |> List.concat_map (fun b -> List.of_seq (Abdm.Store.to_seq b))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Bounded LRU cache for front-end parse results, keyed by
   (language, statement text). One mutex per cache: lookups are a hash
   probe plus a list splice, far below the parse they replace, and the
   executor is the only hot caller anyway. *)

let c_hit = Obs.Metrics.counter "stmt_cache.hit"

let c_miss = Obs.Metrics.counter "stmt_cache.miss"

let c_refused = Obs.Metrics.counter "stmt_cache.refused"

type key = string * string (* language tag, statement source *)

(* Doubly-linked recency list: [first] is most recent, [last] is the
   eviction victim. *)
type 'a node = {
  nkey : key;
  value : 'a;
  mutable prev : 'a node option;  (* toward most-recent *)
  mutable next : 'a node option;  (* toward least-recent *)
}

type 'a t = {
  capacity : int;
  table : (key, 'a node) Hashtbl.t;
  mutable first : 'a node option;
  mutable last : 'a node option;
  mutable hits : int;
  mutable misses : int;
  mutable refused : int;
  seen : int array;
      (* the doorkeeper: hashes of texts refused once while the cache was
         full, direct-mapped by the hash's low bits; [-1] is empty *)
  mx : Mutex.t;
}

(* 8 slots per entry, rounded up to a power of two: 4096 at the default
   capacity. *)
let doorkeeper_slots capacity =
  if capacity = 0 then 0
  else
    let rec up n = if n >= 8 * capacity then n else up (2 * n) in
    up 8

let create ?(capacity = 512) () =
  let capacity = max 0 capacity in
  {
    capacity;
    table = Hashtbl.create (max 16 capacity);
    first = None;
    last = None;
    hits = 0;
    misses = 0;
    refused = 0;
    seen = Array.make (doorkeeper_slots capacity) (-1);
    mx = Mutex.create ();
  }

let capacity t = t.capacity

let length t = Hashtbl.length t.table

let hits t = t.hits

let misses t = t.misses

let refused t = t.refused

let locked t f =
  Mutex.lock t.mx;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mx) f

(* splice [n] out of the recency list *)
let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.first <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.last <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.first;
  (match t.first with Some f -> f.prev <- Some n | None -> t.last <- Some n);
  t.first <- Some n

let find t ~language ~src =
  locked t (fun () ->
      match Hashtbl.find_opt t.table (language, src) with
      | Some n ->
        t.hits <- t.hits + 1;
        Obs.Metrics.incr c_hit;
        (* the node itself, not an option built around it: a fresh
           [Some n] is never physically equal to [t.first] *)
        (match t.first with
        | Some f when f == n -> ()
        | _ ->
          unlink t n;
          push_front t n);
        Some n.value
      | None ->
        t.misses <- t.misses + 1;
        Obs.Metrics.incr c_miss;
        None)

(* A client repeats short statements; a longer text is a one-off script
   (a bulk load of thousands of INSERTs), whose parse tree would stay
   live until [capacity] newer entries pushed it out. Bounding each entry's
   source also bounds the cache's memory, not only its entry count. *)
let max_src_bytes = 4096

(* Once the cache is full, a text is admitted on its second miss, the
   doorkeeper of TinyLFU (Einziger, Friedman & Manes, ACM ToS 2017): a
   one-off text's parse tree would otherwise evict a repeated one and then
   stay live, promoted to the major heap, until it was itself evicted. A
   first miss only writes its hash into [seen]. Two texts whose hashes
   share a slot can make a text wait for a third miss, and equal hashes
   can admit one on its first; the table still compares the full key, so
   neither changes what [find] returns. *)
let admit t key =
  Hashtbl.length t.table < t.capacity
  ||
  let h = Hashtbl.hash key in
  let slot = h land (Array.length t.seen - 1) in
  if t.seen.(slot) = h then begin
    t.seen.(slot) <- -1;
    true
  end
  else begin
    t.seen.(slot) <- h;
    t.refused <- t.refused + 1;
    Obs.Metrics.incr c_refused;
    false
  end

let add t ~language ~src value =
  if t.capacity > 0 && String.length src <= max_src_bytes then
    locked t (fun () ->
        let key = (language, src) in
        (match Hashtbl.find_opt t.table key with
        | Some old ->
          unlink t old;
          Hashtbl.remove t.table key
        | None -> ());
        if admit t key then begin
          if Hashtbl.length t.table >= t.capacity then (
            match t.last with
            | Some victim ->
              unlink t victim;
              Hashtbl.remove t.table victim.nkey
            | None -> ());
          let n = { nkey = key; value; prev = None; next = None } in
          Hashtbl.replace t.table key n;
          push_front t n
        end)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      Array.fill t.seen 0 (Array.length t.seen) (-1);
      t.first <- None;
      t.last <- None)

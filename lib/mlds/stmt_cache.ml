(* Bounded LRU cache for front-end parse results, keyed by
   (language, statement text). One mutex per cache: lookups are a hash
   probe plus a list splice, far below the parse they replace, and the
   executor is the only hot caller anyway. *)

let c_hit = Obs.Metrics.counter "stmt_cache.hit"

let c_miss = Obs.Metrics.counter "stmt_cache.miss"

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
  mx : Mutex.t;
}

let create ?(capacity = 512) () =
  {
    capacity = max 0 capacity;
    table = Hashtbl.create (max 16 capacity);
    first = None;
    last = None;
    hits = 0;
    misses = 0;
    mx = Mutex.create ();
  }

let capacity t = t.capacity

let length t = Hashtbl.length t.table

let hits t = t.hits

let misses t = t.misses

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
        if t.first != Some n then begin
          unlink t n;
          push_front t n
        end;
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

let add t ~language ~src value =
  if t.capacity > 0 && String.length src <= max_src_bytes then
    locked t (fun () ->
        let key = (language, src) in
        (match Hashtbl.find_opt t.table key with
        | Some old ->
          unlink t old;
          Hashtbl.remove t.table key
        | None -> ());
        if Hashtbl.length t.table >= t.capacity then (
          match t.last with
          | Some victim ->
            unlink t victim;
            Hashtbl.remove t.table victim.nkey
          | None -> ());
        let n = { nkey = key; value; prev = None; next = None } in
        Hashtbl.replace t.table key n;
        push_front t n)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.first <- None;
      t.last <- None)

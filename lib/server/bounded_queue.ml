type 'a t = {
  capacity : int;
  lanes : (int, 'a Queue.t) Hashtbl.t;  (* key -> its FIFO sub-queue *)
  order : int Queue.t;  (* round-robin rotation of nonempty lane keys *)
  mutable size : int;  (* total items across all request lanes *)
  control : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable is_closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity < 1";
  {
    capacity;
    lanes = Hashtbl.create 16;
    order = Queue.create ();
    size = 0;
    control = Queue.create ();
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    is_closed = false;
  }

(* One step of the round-robin: take the head of the next lane in the
   rotation; a still-nonempty lane goes to the back of the rotation, an
   emptied one leaves it. Caller holds the lock. *)
let take_request t =
  match Queue.take_opt t.order with
  | None -> None
  | Some key ->
    match Hashtbl.find_opt t.lanes key with
    | None -> None  (* unreachable: order only holds live lane keys *)
    | Some lane ->
      let x = Queue.take lane in
      if Queue.is_empty lane then Hashtbl.remove t.lanes key
      else Queue.push key t.order;
      t.size <- t.size - 1;
      Some x

let try_push t ~key x =
  Mutex.lock t.mutex;
  let accepted =
    if t.is_closed || t.size >= t.capacity then false
    else begin
      let lane, fresh =
        match Hashtbl.find_opt t.lanes key with
        | Some lane -> (lane, false)
        | None -> (Queue.create (), true)
      in
      (* Per-lane fairness quota: capacity / (active lanes + 1). The +1
         reserves headroom, so even when one greedy lane has filled its
         whole quota a newly arriving session still gets slots instead
         of a full queue. *)
      let active = Hashtbl.length t.lanes + if fresh then 1 else 0 in
      let quota = max 1 (t.capacity / (active + 1)) in
      if Queue.length lane >= quota then false
      else begin
        if fresh then begin
          Hashtbl.replace t.lanes key lane;
          Queue.push key t.order
        end;
        Queue.push x lane;
        t.size <- t.size + 1;
        Condition.signal t.nonempty;
        true
      end
    end
  in
  Mutex.unlock t.mutex;
  accepted

let push_control t x =
  Mutex.lock t.mutex;
  if not t.is_closed then begin
    Queue.push x t.control;
    Condition.signal t.nonempty
  end;
  Mutex.unlock t.mutex

(* the next item, control lane first; the caller holds [mutex] *)
let take t =
  match Queue.take_opt t.control with
  | Some _ as x -> x
  | None -> take_request t

(* up to [max] items already queued, onto [acc] newest first *)
let rec drain t acc n max =
  if n >= max then acc
  else
    match take t with
    | Some x -> drain t (x :: acc) (n + 1) max
    | None -> acc

let pop_batch t ~max =
  if max < 1 then invalid_arg "Bounded_queue.pop_batch: max < 1";
  Mutex.lock t.mutex;
  (* block for the first item... *)
  let rec first () =
    match take t with
    | Some _ as x -> x
    | None ->
      if t.is_closed then None
      else begin
        Condition.wait t.nonempty t.mutex;
        first ()
      end
  in
  let batch =
    match first () with
    | None -> []
    | Some head ->
      (* ...then drain whatever is already queued, without blocking *)
      List.rev (drain t [ head ] 1 max)
  in
  Mutex.unlock t.mutex;
  batch

let try_pop_batch t ~max =
  if max < 1 then invalid_arg "Bounded_queue.try_pop_batch: max < 1";
  Mutex.lock t.mutex;
  let batch = List.rev (drain t [] 0 max) in
  Mutex.unlock t.mutex;
  batch

let close t =
  Mutex.lock t.mutex;
  t.is_closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex

let depth t =
  Mutex.lock t.mutex;
  let n = t.size in
  Mutex.unlock t.mutex;
  n

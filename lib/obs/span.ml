type t = {
  span_name : string;
  mutable attrs : (string * string) list;
  index : int;
  domain : int;
  start_s : float;
  mutable dur_s : float;
  mutable children : t list;
}

(* Domain-local recording state. Each domain pushes/pops on its own stack
   and accumulates its own completed roots, so the hot path takes no lock.
   The registry (guarded by [registry_mutex]) only tracks which states
   exist; reading *another* domain's state is legal solely under the
   quiescence contract of the mli ([adopt_remote] / [reset]). *)
type dstate = {
  dom : int;
  mutable stack : t list;
  mutable roots : t list;  (* completed roots, reverse completion order *)
}

let enabled_flag = Atomic.make false

let registry : dstate list ref = ref []

let registry_mutex = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let st = { dom = (Domain.self () :> int); stack = []; roots = [] } in
      Mutex.lock registry_mutex;
      registry := st :: !registry;
      Mutex.unlock registry_mutex;
      st)

let state () = Domain.DLS.get key

let set_enabled b = Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

let by_index a b = Int.compare a.index b.index

let enter ~index ~attrs name =
  let st = state () in
  let span =
    {
      span_name = name;
      attrs;
      index;
      domain = st.dom;
      start_s = Clock.now_s ();
      dur_s = 0.;
      children = [];
    }
  in
  st.stack <- span :: st.stack

let add_attr k v =
  if enabled () then
    match (state ()).stack with
    | span :: _ -> span.attrs <- span.attrs @ [ k, v ]
    | [] -> ()

let exit_span () =
  let st = state () in
  match st.stack with
  | [] -> ()
  | span :: rest ->
    span.dur_s <- Clock.since span.start_s;
    (* children were prepended as they completed; a stable sort on the
       ordering index makes parallel adoption and sequential recording
       produce identical sibling orders *)
    span.children <- List.stable_sort by_index (List.rev span.children);
    st.stack <- rest;
    (match rest with
    | parent :: _ -> parent.children <- span :: parent.children
    | [] -> st.roots <- span :: st.roots)

let with_span ?(index = 0) ?attrs name f =
  if not (enabled ()) then f ()
  else begin
    let attrs = match attrs with None -> [] | Some g -> g () in
    enter ~index ~attrs name;
    match f () with
    | v ->
      exit_span ();
      v
    | exception e ->
      add_attr "error" (Printexc.to_string e);
      exit_span ();
      raise e
  end

let adopt_remote () =
  if enabled () then begin
    let st = state () in
    Mutex.lock registry_mutex;
    let others = List.filter (fun o -> o.dom <> st.dom) !registry in
    Mutex.unlock registry_mutex;
    (* quiescence contract: the owning domains are idle, and waiting for
       their shares to finish published these writes to us *)
    let stolen =
      List.concat_map
        (fun o ->
          let r = o.roots in
          o.roots <- [];
          List.rev r)
        others
    in
    match stolen with
    | [] -> ()
    | spans ->
      let spans = List.stable_sort by_index spans in
      (match st.stack with
      | parent :: _ ->
        (* keep the open parent's reverse-order convention *)
        parent.children <- List.rev_append spans parent.children
      | [] -> st.roots <- List.rev_append spans st.roots)
  end

let take_roots () =
  let st = state () in
  let r = List.rev st.roots in
  st.roots <- [];
  r

let reset () =
  Mutex.lock registry_mutex;
  let all = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun st ->
      st.stack <- [];
      st.roots <- [])
    all

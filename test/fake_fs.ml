(* A recording file system for the crash tests. Every operation passes
   through to [Mlds.Fs.unix] and is logged in model terms (inode numbers
   of its own, the bytes of every write), so the crash-state checker can
   rebuild what a power loss may leave. A fault armed on the k-th
   matching operation fails it, shortens it, or stops the machine there:
   from then on every operation raises [Mlds.Wal.Crash], as if the
   process had died, and the files stay as the crash left them. *)

type kind = Open | Write | Fsync | Ftruncate | Rename | Remove | Fsync_dir

(* One logged mutation. [Create] is a new directory entry for a new,
   empty inode; writes land at [offset] of the inode's contents. *)
type op =
  | Create of string * int
  | Write of int * int * string  (* inode, offset, bytes *)
  | Truncate of int * int
  | Fsync of int
  | Rename of string * string * int
  | Remove of string * int
  | Dir_sync of string

type event = Op of op | Acked of int list

type fault =
  | Eio  (* the operation raises EIO and changes nothing *)
  | Short of int  (* a write returns after [n] bytes; the caller goes on *)
  | Torn of int  (* a write lands [n] bytes, then the machine stops *)
  | Torn_half  (* a write lands half its bytes, then the machine stops *)
  | Lose_unsynced
      (* the operation completes, then the power fails: every file falls
         back to the bytes its last fsync covered *)
  | Stop  (* the machine stops before the operation *)

type armed = { on : kind -> string -> bool; mutable left : int; fault : fault }

type t = {
  mx : Mutex.t;
  names : (string, int) Hashtbl.t;  (* path -> inode *)
  current : (int, Buffer.t) Hashtbl.t;
  durable : (int, string) Hashtbl.t;  (* contents at the last fsync *)
  fds : (Unix.file_descr, int) Hashtbl.t;
  mutable next_ino : int;
  mutable initial : (string * int * string) list;
      (* files present before the trace: path, inode, contents *)
  mutable trace : event list;  (* newest first *)
  mutable armed : armed list;
  mutable dead : bool;
}

let create () =
  {
    mx = Mutex.create ();
    names = Hashtbl.create 8;
    current = Hashtbl.create 8;
    durable = Hashtbl.create 8;
    fds = Hashtbl.create 8;
    next_ino = 1;
    initial = [];
    trace = [];
    armed = [];
    dead = false;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let new_inode t contents =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  let b = Buffer.create (String.length contents) in
  Buffer.add_string b contents;
  Hashtbl.replace t.current ino b;
  Hashtbl.replace t.durable ino contents;
  ino

(* The inode at [path]; a file the model has not seen yet existed before
   the trace began, so its bytes count as durable. *)
let inode t path =
  match Hashtbl.find_opt t.names path with
  | Some ino -> ino
  | None ->
    let contents = read_file path in
    let ino = new_inode t contents in
    Hashtbl.replace t.names path ino;
    t.initial <- (path, ino, contents) :: t.initial;
    ino

let log t op = t.trace <- Op op :: t.trace

let die : 'a. t -> string -> 'a = fun t what ->
  t.dead <- true;
  raise (Mlds.Wal.Crash ("file system stopped: " ^ what))

(* The power fails: every named file falls back to its durable bytes. *)
let lose_unsynced t =
  Hashtbl.iter
    (fun path ino ->
      let now = Buffer.contents (Hashtbl.find t.current ino) in
      let kept = Hashtbl.find t.durable ino in
      if now <> kept then begin
        write_file path kept;
        Buffer.clear (Hashtbl.find t.current ino);
        Buffer.add_string (Hashtbl.find t.current ino) kept
      end)
    t.names

(* The fault, if any, that meets this operation. *)
let fault_for t kind path =
  if t.dead then die t "operation after the crash";
  List.iter (fun a -> if a.on kind path then a.left <- a.left - 1) t.armed;
  match List.find_opt (fun a -> a.left <= 0) t.armed with
  | None -> None
  | Some a ->
    t.armed <- List.filter (fun b -> b != a) t.armed;
    Some a.fault

let syscall = function
  | Open -> "open"
  | Write -> "write"
  | Fsync -> "fsync"
  | Ftruncate -> "ftruncate"
  | Rename -> "rename"
  | Remove -> "unlink"
  | Fsync_dir -> "fsync"

(* Run [f] (the real operation plus its logging) under [kind]'s fault. *)
let guarded t kind path f =
  Mutex.protect t.mx @@ fun () ->
  match fault_for t kind path with
  | None -> f ()
  | Some Eio -> raise (Unix.Unix_error (Unix.EIO, syscall kind, path))
  | Some Lose_unsynced ->
    ignore (f ());
    lose_unsynced t;
    die t "power loss"
  | Some (Stop | Short _ | Torn _ | Torn_half) -> die t "stop"

let unix = Mlds.Fs.unix

let write_logged t (fd : Mlds.Fs.fd) b off len =
  let ino = Hashtbl.find t.fds fd.descr in
  let n = unix.Mlds.Fs.write fd b off len in
  let cur = Hashtbl.find t.current ino in
  log t (Write (ino, Buffer.length cur, Bytes.sub_string b off n));
  Buffer.add_subbytes cur b off n;
  n

let fs t =
  let open_append path =
    guarded t Open path (fun () ->
        let fd, created = unix.Mlds.Fs.open_append path in
        let ino =
          if created then begin
            let ino = new_inode t "" in
            Hashtbl.replace t.names path ino;
            log t (Create (path, ino));
            ino
          end
          else inode t path
        in
        Hashtbl.replace t.fds fd.Mlds.Fs.descr ino;
        (fd, created))
  in
  let write (fd : Mlds.Fs.fd) b off len =
    Mutex.protect t.mx @@ fun () ->
    let landed n =
      let n = min n len in
      let at = ref 0 in
      while !at < n do
        at := !at + write_logged t fd b (off + !at) (n - !at)
      done
    in
    match fault_for t Write fd.path with
    | None -> write_logged t fd b off len
    | Some Eio -> raise (Unix.Unix_error (Unix.EIO, "write", fd.path))
    | Some (Short n) -> if n <= 0 then 0 else write_logged t fd b off (min n len)
    | Some (Torn n) -> landed (max n 0); die t "torn write"
    | Some Torn_half -> landed (len / 2); die t "torn write"
    | Some Lose_unsynced ->
      landed len;
      lose_unsynced t;
      die t "power loss"
    | Some Stop -> die t "stop"
  in
  let fsync (fd : Mlds.Fs.fd) =
    guarded t Fsync fd.path (fun () ->
        let ino = Hashtbl.find t.fds fd.descr in
        unix.Mlds.Fs.fsync fd;
        Hashtbl.replace t.durable ino
          (Buffer.contents (Hashtbl.find t.current ino));
        log t (Fsync ino))
  in
  let ftruncate (fd : Mlds.Fs.fd) len =
    guarded t Ftruncate fd.path (fun () ->
        let ino = Hashtbl.find t.fds fd.descr in
        unix.Mlds.Fs.ftruncate fd len;
        let cur = Hashtbl.find t.current ino in
        if len <= Buffer.length cur then Buffer.truncate cur len
        else Buffer.add_string cur (String.make (len - Buffer.length cur) '\000');
        log t (Truncate (ino, len)))
  in
  (* closing always works, even after the crash: the descriptor is real *)
  let close (fd : Mlds.Fs.fd) =
    Mutex.protect t.mx (fun () -> Hashtbl.remove t.fds fd.descr);
    unix.Mlds.Fs.close fd
  in
  let rename src dst =
    guarded t Rename src (fun () ->
        let ino = inode t src in
        unix.Mlds.Fs.rename src dst;
        Hashtbl.remove t.names src;
        Hashtbl.replace t.names dst ino;
        log t (Rename (src, dst, ino)))
  in
  let remove path =
    guarded t Remove path (fun () ->
        if Sys.file_exists path then begin
          let ino = inode t path in
          unix.Mlds.Fs.remove path;
          Hashtbl.remove t.names path;
          log t (Remove (path, ino))
        end)
  in
  let fsync_dir dir =
    guarded t Fsync_dir dir (fun () ->
        unix.Mlds.Fs.fsync_dir dir;
        log t (Dir_sync dir))
  in
  {
    Mlds.Fs.open_append;
    write;
    fsync;
    ftruncate;
    close;
    rename;
    remove;
    fsync_dir;
  }

(* [arm t ?kind ?path n fault]: the [n]-th operation from now (1-based)
   of [kind] on a path satisfying [path] meets [fault]. *)
let arm t ?kind ?(path = fun _ -> true) n fault =
  let on k p = (match kind with None -> true | Some k' -> k = k') && path p in
  Mutex.protect t.mx (fun () ->
      t.armed <- t.armed @ [ { on; left = n; fault } ])

(* Record that the writes [ids] were acknowledged at this point. *)
let mark t ids = Mutex.protect t.mx (fun () -> t.trace <- Acked ids :: t.trace)

(* Declare every file durable as it stands and restart the trace: the
   checker's initial state is the files as they are now. *)
let settle t =
  Mutex.protect t.mx (fun () ->
      Hashtbl.iter
        (fun _ ino ->
          Hashtbl.replace t.durable ino
            (Buffer.contents (Hashtbl.find t.current ino)))
        t.names;
      t.initial <-
        Hashtbl.fold
          (fun path ino acc -> (path, ino, Hashtbl.find t.durable ino) :: acc)
          t.names [];
      t.trace <- [])

let trace t = Mutex.protect t.mx (fun () -> List.rev t.trace)

(* The files present before the trace: path, inode, contents. *)
let initial t = Mutex.protect t.mx (fun () -> t.initial)

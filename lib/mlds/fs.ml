type fd = { path : string; descr : Unix.file_descr }

type t = {
  open_append : string -> fd * bool;
  write : fd -> bytes -> int -> int -> int;
  fsync : fd -> unit;
  ftruncate : fd -> int -> unit;
  close : fd -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;
  fsync_dir : string -> unit;
}

let unix =
  let open_append path =
    (* O_EXCL first: whether this call created the file is then exact *)
    match
      Unix.openfile path Unix.[ O_WRONLY; O_APPEND; O_CREAT; O_EXCL ] 0o644
    with
    | descr -> ({ path; descr }, true)
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      let descr = Unix.openfile path Unix.[ O_WRONLY; O_APPEND ] 0 in
      ({ path; descr }, false)
  in
  let fsync_dir dir =
    let d = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close d) (fun () -> Unix.fsync d)
  in
  {
    open_append;
    write = (fun fd b off len -> Unix.write fd.descr b off len);
    fsync = (fun fd -> Unix.fsync fd.descr);
    ftruncate = (fun fd len -> Unix.ftruncate fd.descr len);
    close = (fun fd -> Unix.close fd.descr);
    rename = Unix.rename;
    remove =
      (fun path ->
        try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
    fsync_dir;
  }

let create fs path =
  let fd, created = fs.open_append path in
  (* the new entry must outlive a power loss like the bytes written to it *)
  if created then fs.fsync_dir (Filename.dirname path);
  fd

let write_all fs fd b off len =
  let stop = off + len in
  let at = ref off in
  while !at < stop do
    match fs.write fd b !at (stop - !at) with
    | 0 -> raise (Unix.Unix_error (Unix.EIO, "write", fd.path))
    | n -> at := !at + n
  done

let temp_of file = file ^ ".tmp"

let replace fs ~file text =
  let tmp = temp_of file in
  let fd, _ = fs.open_append tmp in
  (match
     (* a leftover from a crashed replace is overwritten, not appended to *)
     fs.ftruncate fd 0;
     write_all fs fd (Bytes.unsafe_of_string text) 0 (String.length text);
     fs.fsync fd
   with
  | () -> fs.close fd
  | exception e ->
    (try fs.close fd with Unix.Unix_error _ -> ());
    (* a failed replace must not keep a file's worth of bytes on a full
       disk until the next replace of that file happens to succeed *)
    (try fs.remove tmp with Unix.Unix_error _ -> ());
    raise e);
  fs.rename tmp file;
  (* the rename is durable only once the directory is *)
  fs.fsync_dir (Filename.dirname file)

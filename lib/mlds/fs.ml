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

type replacement = { r_fs : t; r_file : string; r_fd : fd }

(* A failed replace must not keep a file's worth of bytes on a full disk
   until the next replace of that file happens to succeed: close and
   remove the temp file, then re-raise. *)
let abandon r e =
  (try r.r_fs.close r.r_fd with Unix.Unix_error _ -> ());
  (try r.r_fs.remove (temp_of r.r_file) with Unix.Unix_error _ -> ());
  raise e

let replace_open fs ~file =
  let fd, _ = fs.open_append (temp_of file) in
  let r = { r_fs = fs; r_file = file; r_fd = fd } in
  (* a leftover from a crashed replace is overwritten, not appended to *)
  (try fs.ftruncate fd 0 with e -> abandon r e);
  r

let replace_write r b off len =
  try write_all r.r_fs r.r_fd b off len with e -> abandon r e

let replace_commit r =
  (match r.r_fs.fsync r.r_fd with
  | () -> r.r_fs.close r.r_fd
  | exception e -> abandon r e);
  r.r_fs.rename (temp_of r.r_file) r.r_file;
  (* the rename is durable only once the directory is *)
  r.r_fs.fsync_dir (Filename.dirname r.r_file)

let replace fs ~file text =
  let r = replace_open fs ~file in
  replace_write r (Bytes.unsafe_of_string text) 0 (String.length text);
  replace_commit r

(** The file-system seam: every mutating file operation of the durable
    store — {!Wal}, {!Persist} and the replication standby — goes through
    one [t], and this module is the one place that knows the durability
    protocol built from them.

    Production uses {!unix}. A test builds its own [t] (a recording or
    fault-injecting one) and hands it to [System.create ?fs] or
    [Wal.open_log ?fs] at construction; there is no other way in. Reads
    (recovery, tailing, snapshot loads) do not go through the seam. *)

(** An open file. Every write lands at the end of the file. *)
type fd = { path : string; descr : Unix.file_descr }

(** The primitive operations, one system call each. Errors are raised as
    [Unix.Unix_error]. *)
type t = {
  open_append : string -> fd * bool;
      (** open for appending, creating the file if it is missing;
          [true] when this call created it *)
  write : fd -> bytes -> int -> int -> int;
      (** [write fd b off len]: one write, which may be short *)
  fsync : fd -> unit;
  ftruncate : fd -> int -> unit;
  close : fd -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;  (** an absent file is not an error *)
  fsync_dir : string -> unit;  (** make the directory's entries durable *)
}

(** The real file system. *)
val unix : t

(** [create fs path] opens [path] for appending. A file this call
    creates has its directory entry made durable (the parent directory
    is fsynced) before [create] returns. *)
val create : t -> string -> fd

(** [write_all fs fd b off len] writes all [len] bytes, looping over
    short writes. A write that makes no progress raises
    [Unix.Unix_error (EIO, "write", path)]. *)
val write_all : t -> fd -> bytes -> int -> int -> unit

(** [replace fs ~file text] atomically replaces [file]'s contents with
    [text]: write [<file>.tmp], fsync it, rename it over [file], fsync
    the directory. A crash leaves either the old contents or the new,
    and once [replace] returns the new contents survive a power loss.
    A replace that fails before its rename removes its temp file. The
    temp name is fixed, so a leftover from a crashed replace is
    overwritten by the next one; two replaces of the same [file] must
    therefore never run at once (each caller serializes its own). *)
val replace : t -> file:string -> string -> unit

(** {2 A replace written in pieces}

    The same protocol for contents produced a piece at a time, so the
    writer never holds them whole: {!replace} is [replace_open], one
    [replace_write], [replace_commit]. A [replace_write] or
    [replace_commit] that raises has already closed and removed the temp
    file; the replacement is then dead. *)

(** An open temp file of a replace in progress. *)
type replacement

(** [replace_open fs ~file] opens [<file>.tmp] and empties it. *)
val replace_open : t -> file:string -> replacement

(** [replace_write r b off len] appends [len] bytes of [b] from [off] to
    the temp file. *)
val replace_write : replacement -> bytes -> int -> int -> unit

(** [replace_commit r] fsyncs and closes the temp file, renames it over
    [file] and fsyncs the directory. *)
val replace_commit : replacement -> unit

(** The temp file {!replace} writes beside [file]. *)
val temp_of : string -> string

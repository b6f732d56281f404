(** Abstract syntax of the CODASYL-DML subset of §II.B.2 / Chapter VI:
    FIND (six variants), GET (three variants), STORE, CONNECT, DISCONNECT,
    MODIFY, ERASE — plus the host-language MOVE that fills the UWA. *)

type position =
  | First
  | Last
  | Next
  | Prior

type find =
  | Find_any of { record : string; items : string list }
      (** FIND ANY r USING i1, ..., in IN r *)
  | Find_current of { record : string; set : string }
      (** FIND CURRENT r WITHIN s *)
  | Find_duplicate of { set : string; record : string; items : string list }
      (** FIND DUPLICATE WITHIN s USING i1, ..., in IN r *)
  | Find_position of { pos : position; record : string; set : string }
      (** FIND FIRST/LAST/NEXT/PRIOR r WITHIN s *)
  | Find_owner of { set : string }  (** FIND OWNER WITHIN s *)
  | Find_within_current of { record : string; set : string; items : string list }
      (** FIND r WITHIN s CURRENT USING i1, ..., in IN r *)

type get =
  | Get_current  (** GET — whole current record of the run-unit *)
  | Get_record of string  (** GET r *)
  | Get_items of { items : string list; record : string }
      (** GET i1, ..., in IN r *)

type stmt =
  | Move of { value : Abdm.Value.t; item : string; record : string }
      (** MOVE v TO i IN r (host-language UWA assignment) *)
  | Find of find
  | Get of get
  | Store of string
  | Connect of { record : string; sets : string list }
  | Disconnect of { record : string; sets : string list }
  | Modify of { record : string; items : string list }
      (** empty [items] = whole record *)
  | Erase of { record : string; all : bool }
  | Perform_until_eof of stmt list
      (** the host-language iteration idiom of §VI.B.4
          (MOVE 'NO' TO EOF ... PERFORM UNTIL EOF = 'YES'): repeat the
          block until a FIND inside it runs off its set *)

val to_string : stmt -> string

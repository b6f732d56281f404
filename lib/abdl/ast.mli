(** Abstract syntax of the attribute-based data language (ABDL), the kernel
    data language of MLDS (paper §II.C.2). Four operations are used by the
    language interfaces: INSERT, DELETE, UPDATE, RETRIEVE; a transaction
    groups two or more sequentially executed requests. *)

type aggregate =
  | Count
  | Sum
  | Avg
  | Min
  | Max

type target_item =
  | T_all  (** [(ALL)] — every attribute of each retrieved record *)
  | T_attr of string
  | T_agg of aggregate * string

type request =
  | Insert of Abdm.Record.t
  | Delete of Abdm.Query.t
  | Update of Abdm.Query.t * Abdm.Modifier.t list
  | Retrieve of retrieve
  | Retrieve_common of retrieve_common
      (** the fifth ABDL operation (paper §II.C.2): an equi-join of two
          qualified record sets on a common attribute pair *)

and retrieve = {
  query : Abdm.Query.t;
  targets : target_item list;
  by : string option;  (** group (with aggregates) or sort (without) *)
}

and retrieve_common = {
  rc_left : Abdm.Query.t;
  rc_left_attr : string;
  rc_right : Abdm.Query.t;
  rc_right_attr : string;
  rc_targets : target_item list;
      (** projected over the merged record; colliding right-hand attribute
          names are disambiguated as [file.attr] *)
}

type transaction = request list

val retrieve : ?by:string -> Abdm.Query.t -> target_item list -> request

(** [has_aggregate targets] — does any target apply an aggregate? *)
val has_aggregate : target_item list -> bool

val aggregate_to_string : aggregate -> string

val target_to_string : target_item -> string

(** Renders a request in the paper's surface syntax, e.g.
    [RETRIEVE ((FILE = course) AND (title = 'DB')) (title, credits) BY course]. *)
val to_string : request -> string

(** [to_buffer buf r] appends [to_string r] to [buf] — the one ABDL
    printer; snapshot lines and WAL frames are written through it. *)
val to_buffer : Buffer.t -> request -> unit

val pp : Format.formatter -> request -> unit

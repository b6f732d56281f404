(** Abstract syntax of the SQL subset served by the MLDS relational
    language interface. *)

type select_item =
  | S_star
  | S_col of string
  | S_agg of Abdl.Ast.aggregate * string
      (** COUNT/SUM/AVG/MIN/MAX; a count-all carries the column ["*"] *)

type stmt =
  | Create_table of Types.relation
  | Select of {
      items : select_item list;
      tables : string list;
          (** one table, or two for an equi-join served by the kernel's
              RETRIEVE_COMMON *)
      where : Abdm.Query.t;
      group_by : string option;
      order_by : string option;
    }
  | Insert of {
      table : string;
      columns : string list option;  (** [None] = declaration order *)
      values : Abdm.Value.t list;
    }
  | Delete of {
      table : string;
      where : Abdm.Query.t;
    }
  | Update of {
      table : string;
      sets : (string * Abdm.Value.t) list;
      where : Abdm.Query.t;
    }

val to_string : stmt -> string

(** [to_buffer buf stmt] appends [to_string stmt] to [buf]. *)
val to_buffer : Buffer.t -> stmt -> unit

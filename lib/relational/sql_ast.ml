type select_item =
  | S_star
  | S_col of string
  | S_agg of Abdl.Ast.aggregate * string

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
      columns : string list option;
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

(* Appends [f] over [items] separated by ", ". *)
let add_list buf f items =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf ", ";
      f buf x)
    items

let add_select_item buf = function
  | S_star -> Buffer.add_char buf '*'
  | S_col name -> Buffer.add_string buf name
  | S_agg (agg, col) ->
    Buffer.add_string buf (Abdl.Ast.aggregate_to_string agg);
    Buffer.add_char buf '(';
    Buffer.add_string buf col;
    Buffer.add_char buf ')'

let add_where buf where =
  if where <> Abdm.Query.always then begin
    Buffer.add_string buf " WHERE ";
    Abdm.Query.to_buffer buf where
  end

let add_clause buf keyword = function
  | Some col ->
    Buffer.add_string buf keyword;
    Buffer.add_string buf col
  | None -> ()

let to_buffer buf = function
  | Create_table rel ->
    let add_col buf c =
      Buffer.add_string buf c.Types.col_name;
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Types.col_type_to_string c.Types.col_type);
      if c.Types.col_unique then Buffer.add_string buf " UNIQUE"
    in
    Buffer.add_string buf "CREATE TABLE ";
    Buffer.add_string buf rel.Types.rel_name;
    Buffer.add_string buf " (";
    add_list buf add_col rel.Types.rel_columns;
    Buffer.add_char buf ')'
  | Select { items; tables; where; group_by; order_by } ->
    Buffer.add_string buf "SELECT ";
    add_list buf add_select_item items;
    Buffer.add_string buf " FROM ";
    add_list buf Buffer.add_string tables;
    add_where buf where;
    add_clause buf " GROUP BY " group_by;
    add_clause buf " ORDER BY " order_by
  | Insert { table; columns; values } ->
    Buffer.add_string buf "INSERT INTO ";
    Buffer.add_string buf table;
    Option.iter
      (fun cols ->
        Buffer.add_string buf " (";
        add_list buf Buffer.add_string cols;
        Buffer.add_char buf ')')
      columns;
    Buffer.add_string buf " VALUES (";
    add_list buf Abdm.Value.to_buffer values;
    Buffer.add_char buf ')'
  | Delete { table; where } ->
    Buffer.add_string buf "DELETE FROM ";
    Buffer.add_string buf table;
    add_where buf where
  | Update { table; sets; where } ->
    Buffer.add_string buf "UPDATE ";
    Buffer.add_string buf table;
    Buffer.add_string buf " SET ";
    add_list buf
      (fun buf (c, v) ->
        Buffer.add_string buf c;
        Buffer.add_string buf " = ";
        Abdm.Value.to_buffer buf v)
      sets;
    add_where buf where

let to_string stmt =
  let buf = Buffer.create 64 in
  to_buffer buf stmt;
  Buffer.contents buf

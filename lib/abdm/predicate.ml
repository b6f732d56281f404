type op =
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge

type t = {
  attribute : string;
  op : op;
  value : Value.t;
}

let make attribute op value = { attribute; op; value }

let file_eq name = make Keyword.file_attribute Eq (Value.Str name)

let eval op a b =
  (* Null semantics: only equality against Null (or inequality against a
     non-null value) can hold; ordered comparisons involving Null fail. *)
  match op with
  | Eq -> Value.equal a b
  | Neq -> not (Value.equal a b)
  | Lt | Le | Gt | Ge ->
    if Value.is_null a || Value.is_null b then false
    else
      let c = Value.compare a b in
      begin
        match op with
        | Lt -> c < 0
        | Le -> c <= 0
        | Gt -> c > 0
        | Ge -> c >= 0
        | Eq | Neq -> assert false
      end

let satisfied_by pred record =
  match Record.value_of record pred.attribute with
  | None -> false
  | Some v -> eval pred.op v pred.value

let op_to_string = function
  | Eq -> "="
  | Neq -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let op_of_string = function
  | "=" -> Some Eq
  | "<>" | "!=" -> Some Neq
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

let to_buffer buf { attribute; op; value } =
  Buffer.add_char buf '(';
  Buffer.add_string buf attribute;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (op_to_string op);
  Buffer.add_char buf ' ';
  Value.to_buffer buf value;
  Buffer.add_char buf ')'

let to_string pred =
  let buf = Buffer.create 32 in
  to_buffer buf pred;
  Buffer.contents buf

let pp ppf pred = Format.pp_print_string ppf (to_string pred)

type arith =
  | Add
  | Sub
  | Mul
  | Div

type t =
  | Set_const of string * Value.t
  | Set_arith of string * arith * Value.t

let arith_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"

let apply_arith op a b =
  let as_float = function
    | Value.Int i -> Some (float_of_int i)
    | Value.Float f -> Some f
    | Value.Str _ | Value.Null -> None
  in
  match as_float a, as_float b with
  | Some x, Some y ->
    let r =
      match op with
      | Add -> x +. y
      | Sub -> x -. y
      | Mul -> x *. y
      | Div -> x /. y
    in
    (* Keep integer arithmetic exact when both operands are integers. *)
    begin
      match a, b with
      | Value.Int _, Value.Int _ when Float.is_integer r ->
        Some (Value.Int (int_of_float r))
      | _ -> Some (Value.Float r)
    end
  | _ -> None

let apply modifier record =
  match modifier with
  | Set_const (attr, v) -> Record.set record attr v
  | Set_arith (attr, op, v) ->
    match Record.value_of record attr with
    | None -> record
    | Some current ->
      match apply_arith op current v with
      | None -> record
      | Some v' -> Record.set record attr v'

let attribute = function
  | Set_const (attr, _) | Set_arith (attr, _, _) -> attr

let to_buffer buf m =
  match m with
  | Set_const (attr, v) ->
    Buffer.add_string buf attr;
    Buffer.add_string buf " = ";
    Value.to_buffer buf v
  | Set_arith (attr, op, v) ->
    Buffer.add_string buf attr;
    Buffer.add_string buf " = ";
    Buffer.add_string buf attr;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (arith_to_string op);
    Buffer.add_char buf ' ';
    Value.to_buffer buf v

let to_string m =
  let buf = Buffer.create 32 in
  to_buffer buf m;
  Buffer.contents buf

let pp ppf m = Format.pp_print_string ppf (to_string m)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Null

let class_rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Null, Null -> 0
  | (Null | Int _ | Float _ | Str _), _ -> Int.compare (class_rank a) (class_rank b)

let equal a b = compare a b = 0

let is_null = function
  | Null -> true
  | Int _ | Float _ | Str _ -> false

(* The shortest of %.15g, %.16g and %.17g that reads back bit-equal, so a
   float survives a snapshot or a WAL frame. An integral float keeps a
   ".0" so it does not come back as an [Int]. *)
let float_literal f =
  let exact s = Float.equal (float_of_string s) f in
  let s = Printf.sprintf "%.15g" f in
  let s =
    if exact s then s
    else
      let s = Printf.sprintf "%.16g" f in
      if exact s then s else Printf.sprintf "%.17g" f
  in
  (* 'n' covers nan and inf, which carry no digits to extend *)
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n') s then s
  else s ^ ".0"

(* [add_int buf i] appends [string_of_int i] digit by digit: every SQL
   INSERT reply and snapshot line prints several integers, and
   [string_of_int] costs a C format call and a fresh string for each. *)
let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (n mod 10)))

let add_int buf i =
  if i >= 0 then add_digits buf i
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    Buffer.add_char buf '-';
    add_digits buf (-i)
  end

let to_buffer buf = function
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_literal f)
  | Str s ->
    Buffer.add_char buf '\'';
    if String.contains s '\'' then
      (* a quote is escaped by doubling it *)
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_char buf '\'';
          Buffer.add_char buf c)
        s
    else Buffer.add_string buf s;
    Buffer.add_char buf '\''
  | Null -> Buffer.add_string buf "NULL"

let to_string = function
  | Int i -> string_of_int i
  | Null -> "NULL"
  | (Float _ | Str _) as v ->
    let buf = Buffer.create 16 in
    to_buffer buf v;
    Buffer.contents buf

let to_display = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Null -> "NULL"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_literal s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then invalid_arg "Value.of_literal: empty literal"
  else if len >= 2 && s.[0] = '\'' && s.[len - 1] = '\'' then
    Str (String.sub s 1 (len - 2))
  else if String.uppercase_ascii s = "NULL" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> invalid_arg (Printf.sprintf "Value.of_literal: %S" s)

type t = {
  attribute : string;
  value : Value.t;
}

let file_attribute = "FILE"

let make attribute value = { attribute; value }

let file name = { attribute = file_attribute; value = Value.Str name }

let to_buffer buf { attribute; value } =
  Buffer.add_char buf '<';
  Buffer.add_string buf attribute;
  Buffer.add_string buf ", ";
  Value.to_buffer buf value;
  Buffer.add_char buf '>'

let to_string kw =
  let buf = Buffer.create 32 in
  to_buffer buf kw;
  Buffer.contents buf

let pp ppf kw = Format.pp_print_string ppf (to_string kw)

(* A record is its shape — the attribute names in keyword order — and one
   value per attribute, in a flat array beside it. Records of one file
   share one shape array, so the attribute names are held once per file
   rather than once per record (a keyword-list record kept a cons cell
   and a keyword block, six words, per keyword). Neither array is ever
   written after the record is built: [set] and [remove] copy. *)

type shape = string array

type t = {
  shape : shape;
  values : Value.t array;
  text : string;
}

let duplicate what attr =
  invalid_arg (Printf.sprintf "%s: duplicate attribute %S" what attr)

(* A pairwise scan, allocation-free: records are a handful of keywords,
   where a hash table costs more to build than the comparisons it saves.
   Reports the first attribute that occurred before it. *)
let check_no_duplicate what shape =
  for i = 1 to Array.length shape - 1 do
    for j = 0 to i - 1 do
      if String.equal shape.(j) shape.(i) then duplicate what shape.(i)
    done
  done

let shape attrs =
  let shape = Array.of_list attrs in
  check_no_duplicate "Record.shape" shape;
  shape

let shape_equal a b =
  a == b
  || Array.length a = Array.length b
     &&
     let rec from i = i = Array.length a || (String.equal a.(i) b.(i) && from (i + 1)) in
     from 0

let make ?(text = "") keywords =
  let n = List.length keywords in
  let shape = Array.make n "" and values = Array.make n Value.Null in
  List.iteri
    (fun i (kw : Keyword.t) ->
      shape.(i) <- kw.attribute;
      values.(i) <- kw.value)
    keywords;
  check_no_duplicate "Record.make" shape;
  { shape; values; text }

let of_values shape values =
  if Array.length values <> Array.length shape then
    invalid_arg
      (Printf.sprintf "Record.of_values: %d values for %d attributes"
         (Array.length values) (Array.length shape));
  { shape; values; text = "" }

let init shape f = { shape; values = Array.map f shape; text = "" }

let shape_of record = record.shape

let text record = record.text

let with_shape record shape =
  if shape == record.shape then Some record
  else if shape_equal shape record.shape then Some { record with shape }
  else None

let rec index_from shape attr i =
  if i = Array.length shape then -1
  else if String.equal shape.(i) attr then i
  else index_from shape attr (i + 1)

let value_of record attr =
  match index_from record.shape attr 0 with
  | -1 -> None
  | i -> Some record.values.(i)

let file record =
  match value_of record Keyword.file_attribute with
  | Some (Value.Str name) -> Some name
  | Some (Value.Int _ | Value.Float _ | Value.Null) | None -> None

let set record attr v =
  match index_from record.shape attr 0 with
  | -1 ->
    {
      record with
      shape = Array.append record.shape [| attr |];
      values = Array.append record.values [| v |];
    }
  | i ->
    let values = Array.copy record.values in
    values.(i) <- v;
    { record with values }

let remove record attr =
  match index_from record.shape attr 0 with
  | -1 -> record
  | i ->
    let without a =
      Array.init (Array.length a - 1) (fun j -> if j < i then a.(j) else a.(j + 1))
    in
    { record with shape = without record.shape; values = without record.values }

let attributes record = Array.to_list record.shape

let fold f acc record =
  let acc = ref acc in
  for i = 0 to Array.length record.shape - 1 do
    acc := f !acc record.shape.(i) record.values.(i)
  done;
  !acc

let equal a b =
  String.equal a.text b.text
  && shape_equal a.shape b.shape
  && Array.for_all2 Value.equal a.values b.values

let keywords_to_buffer buf record =
  Array.iteri
    (fun i attr ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_char buf '<';
      Buffer.add_string buf attr;
      Buffer.add_string buf ", ";
      Value.to_buffer buf record.values.(i);
      Buffer.add_char buf '>')
    record.shape

let to_string record =
  let buf = Buffer.create 64 in
  Buffer.add_char buf '(';
  keywords_to_buffer buf record;
  if not (String.equal record.text "") then begin
    Buffer.add_string buf " | ";
    Buffer.add_string buf record.text
  end;
  Buffer.add_char buf ')';
  Buffer.contents buf

let pp ppf record = Format.pp_print_string ppf (to_string record)

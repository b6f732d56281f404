type t = {
  keywords : Keyword.t list;
  text : string;
}

(* A pairwise scan, allocation-free: records are a handful of keywords,
   where a hash table costs more to build than the comparisons it saves.
   Reports the first keyword whose attribute occurred before it. *)
let check_no_duplicate keywords =
  let rec among_first n attr = function
    | (kw : Keyword.t) :: rest when n > 0 ->
      String.equal kw.attribute attr || among_first (n - 1) attr rest
    | _ -> false
  in
  let rec check i = function
    | [] -> ()
    | (kw : Keyword.t) :: rest ->
      if among_first i kw.attribute keywords then
        invalid_arg
          (Printf.sprintf "Record.make: duplicate attribute %S" kw.attribute);
      check (i + 1) rest
  in
  check 0 keywords

let make ?(text = "") keywords =
  check_no_duplicate keywords;
  { keywords; text }

let value_of record attr =
  List.find_map
    (fun (kw : Keyword.t) ->
      if String.equal kw.attribute attr then Some kw.value else None)
    record.keywords

let file record =
  match value_of record Keyword.file_attribute with
  | Some (Value.Str name) -> Some name
  | Some (Value.Int _ | Value.Float _ | Value.Null) | None -> None

let set record attr v =
  let replaced = ref false in
  let replace (kw : Keyword.t) =
    if String.equal kw.attribute attr then begin
      replaced := true;
      Keyword.make attr v
    end
    else kw
  in
  let keywords = List.map replace record.keywords in
  if !replaced then { record with keywords }
  else { record with keywords = keywords @ [ Keyword.make attr v ] }

let remove record attr =
  let keep (kw : Keyword.t) = not (String.equal kw.attribute attr) in
  { record with keywords = List.filter keep record.keywords }

let attributes record =
  List.map (fun (kw : Keyword.t) -> kw.attribute) record.keywords

let equal a b =
  String.equal a.text b.text
  && List.length a.keywords = List.length b.keywords
  && List.for_all2 Keyword.equal a.keywords b.keywords

let to_string record =
  let body = String.concat ", " (List.map Keyword.to_string record.keywords) in
  if String.equal record.text "" then Printf.sprintf "(%s)" body
  else Printf.sprintf "(%s | %s)" body record.text

let pp ppf record = Format.pp_print_string ppf (to_string record)

type conjunction = Predicate.t list

type t = conjunction list

let always = [ [] ]

let never = []

let conj preds = [ preds ]

let disj qs = List.concat qs

let conj_and q1 q2 =
  List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) q2) q1

let satisfies query record =
  let conj_holds preds =
    List.for_all (fun pred -> Predicate.satisfied_by pred record) preds
  in
  List.exists conj_holds query

let file_of_conjunction preds =
  List.find_map
    (fun (pred : Predicate.t) ->
      match pred.op, pred.value with
      | Predicate.Eq, Value.Str name
        when String.equal pred.attribute Keyword.file_attribute ->
        Some name
      | _ -> None)
    preds

let files query =
  let rec collect acc = function
    | [] -> Some (List.rev acc)
    | preds :: rest ->
      match file_of_conjunction preds with
      | Some name -> collect (name :: acc) rest
      | None -> None
  in
  collect [] query

let conjunction_to_buffer buf preds =
  match preds with
  | [] -> Buffer.add_string buf "(TRUE)"
  | first :: rest ->
    Predicate.to_buffer buf first;
    List.iter
      (fun pred ->
        Buffer.add_string buf " AND ";
        Predicate.to_buffer buf pred)
      rest

let to_buffer buf query =
  match query with
  | [] -> Buffer.add_string buf "(FALSE)"
  | [ preds ] -> conjunction_to_buffer buf preds
  | _ ->
    List.iteri
      (fun i preds ->
        if i > 0 then Buffer.add_string buf " OR ";
        Buffer.add_char buf '(';
        conjunction_to_buffer buf preds;
        Buffer.add_char buf ')')
      query

let buffered add x =
  let buf = Buffer.create 64 in
  add buf x;
  Buffer.contents buf

let conjunction_to_string = buffered conjunction_to_buffer

let to_string = buffered to_buffer

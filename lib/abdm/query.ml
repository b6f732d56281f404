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

(* A conjunction is unsatisfiable when an equality on some attribute
   contradicts another predicate on the same attribute. *)
let contradictory preds =
  List.exists
    (fun (p : Predicate.t) ->
      match p.op with
      | Predicate.Eq ->
        List.exists
          (fun (q : Predicate.t) ->
            String.equal p.attribute q.attribute
            && not (Predicate.eval q.op p.value q.value))
          preds
      | Predicate.Neq | Predicate.Lt | Predicate.Le | Predicate.Gt
      | Predicate.Ge -> false)
    preds

let simplify query =
  let dedup_preds preds =
    List.fold_left
      (fun acc (p : Predicate.t) ->
        if
          List.exists
            (fun (q : Predicate.t) ->
              String.equal p.attribute q.attribute
              && p.op = q.op
              && Value.equal p.value q.value)
            acc
        then acc
        else p :: acc)
      [] preds
    |> List.rev
  in
  let conjunctions =
    List.filter_map
      (fun preds ->
        let preds = dedup_preds preds in
        if contradictory preds then None else Some preds)
      query
  in
  (* drop duplicate conjunctions (same predicate multiset, order kept) *)
  let same_conjunction a b =
    List.length a = List.length b
    && List.for_all
         (fun (p : Predicate.t) ->
           List.exists
             (fun (q : Predicate.t) ->
               String.equal p.attribute q.attribute
               && p.op = q.op
               && Value.equal p.value q.value)
             b)
         a
  in
  List.fold_left
    (fun acc preds ->
      if List.exists (same_conjunction preds) acc then acc else preds :: acc)
    [] conjunctions
  |> List.rev

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

type t = {
  schema : Daplex.Schema.t;
  pairs : (string * string) list;  (* declared overlaps, both orders *)
}

let of_schema schema =
  let expand (ov : Daplex.Types.overlap) =
    List.concat_map
      (fun a -> List.concat_map (fun b -> [ a, b; b, a ]) ov.ov_right)
      ov.ov_left
  in
  { schema; pairs = List.concat_map expand schema.Daplex.Schema.overlaps }

let related schema a b =
  let ancestors = Daplex.Schema.ancestors schema in
  List.mem b (ancestors a) || List.mem a (ancestors b)

let share_ancestor schema a b =
  let ancestors_of x = x :: Daplex.Schema.ancestors schema x in
  List.exists (fun anc -> List.mem anc (ancestors_of b)) (ancestors_of a)

let allowed t a b =
  String.equal a b
  || related t.schema a b
  || (not (share_ancestor t.schema a b))
  || List.mem (a, b) t.pairs

let to_string t =
  match t.pairs with
  | [] -> "(no overlap constraints)"
  | pairs ->
    pairs
    |> List.filter (fun (a, b) -> String.compare a b <= 0)
    |> List.map (fun (a, b) -> Printf.sprintf "%s ~ %s" a b)
    |> String.concat "\n"

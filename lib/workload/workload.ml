module Rng = struct
  (* SplitMix64-style mixing; deterministic across platforms *)
  type t = { mutable state : int64 }

  let create seed = { state = Int64.of_int seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int t bound =
    if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
    Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0
end

type distribution =
  | Uniform of int
  | Zipf of int * float
  | Sequential

type spec = {
  file : string;
  records : int;
  int_attrs : (string * distribution) list;
  str_attrs : (string * int) list;
}

(* Inverse-CDF sampling of a (finite) zipf distribution. *)
let zipf_sampler n s =
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i w ->
      acc := !acc +. (w /. total);
      cdf.(i) <- !acc)
    weights;
  fun u ->
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

let records ~seed spec =
  let rng = Rng.create seed in
  let zipf_samplers =
    List.filter_map
      (fun (attr, dist) ->
        match dist with
        | Zipf (n, s) -> Some (attr, zipf_sampler n s)
        | Uniform _ | Sequential -> None)
      spec.int_attrs
  in
  let shape =
    Abdm.Record.shape
      ((Abdm.Keyword.file_attribute :: List.map fst spec.int_attrs)
      @ List.map fst spec.str_attrs)
  in
  let file_value = Abdm.Value.Str spec.file in
  List.init spec.records (fun i ->
      let int_values =
        List.map
          (fun (attr, dist) ->
            let v =
              match dist with
              | Uniform n -> Rng.int rng n
              | Sequential -> i
              | Zipf _ -> (List.assoc attr zipf_samplers) (Rng.float rng)
            in
            Abdm.Value.Int v)
          spec.int_attrs
      in
      let str_values =
        List.map
          (fun (attr, cardinality) ->
            Abdm.Value.Str
              (Printf.sprintf "%s_%d" attr (Rng.int rng (max 1 cardinality))))
          spec.str_attrs
      in
      Abdm.Record.of_values shape
        (Array.of_list ((file_value :: int_values) @ str_values)))

let populate ~seed spec insert =
  let generated = records ~seed spec in
  List.iter (fun r -> ignore (insert r)) generated;
  List.length generated

let range_probe spec ~attr ~selectivity =
  let threshold =
    spec.records - int_of_float (selectivity *. float_of_int spec.records) - 1
  in
  Abdl.Ast.retrieve
    (Abdm.Query.conj
       [
         Abdm.Predicate.file_eq spec.file;
         Abdm.Predicate.make attr Abdm.Predicate.Gt (Abdm.Value.Int threshold);
       ])
    [ Abdl.Ast.T_attr attr ]

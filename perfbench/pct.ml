(* Exact percentiles by rank over raw samples — never from a bucketed
   histogram. *)

(* [rank sorted p]: the nearest-rank p-th percentile of an ascending
   array, the sample at 1-based rank ceil(p/100 * n). [nan] when empty.
   The rank is computed in integers, with p in thousandths of a percent:
   in floating point 99.9/100 * 1000 is 999.0000000000001, one rank too
   high. *)
let rank sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let milli = int_of_float (Float.round (p *. 1000.)) in
    let r = ((milli * n) + 99_999) / 100_000 in
    sorted.(max 0 (min (n - 1) (r - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* samples strictly above [v] *)
let beyond sorted v =
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 sorted

let median values = rank (sorted_copy (Array.of_list values)) 50.

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

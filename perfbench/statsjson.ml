(* Reads the server's [Stats] reply (one JSON object whose "metrics" array
   holds every registered instrument) and takes deltas between two
   snapshots. Histograms are read only as count and sum (mean x count):
   their bucket percentiles are never used. *)

type sample =
  | Counter of float
  | Gauge of float
  | Hist of { count : float; sum : float }

type snapshot = (string * sample) list

let parse text : (snapshot, string) result =
  let module J = Obs.Json in
  match J.parse text with
  | Error e -> Error e
  | Ok j ->
    (match J.member "metrics" j with
    | Some (J.Arr items) ->
      Ok
        (List.filter_map
           (fun m ->
             let num k = Option.value ~default:0. (J.num_member k m) in
             match J.str_member "type" m, J.str_member "name" m with
             | Some "counter", Some n -> Some (n, Counter (num "value"))
             | Some "gauge", Some n -> Some (n, Gauge (num "value"))
             | Some "histogram", Some n ->
               let count = num "count" in
               Some (n, Hist { count; sum = num "mean" *. count })
             | _ -> None)
           items)
    | _ -> Error "stats reply has no metrics array")

(* [after - before] per instrument: counters and histograms subtract,
   gauges keep the later value. An instrument born between the two
   snapshots counts from zero. *)
let delta ~(before : snapshot) ~(after : snapshot) : snapshot =
  List.map
    (fun (n, a) ->
      match a, List.assoc_opt n before with
      | Counter x, Some (Counter y) -> n, Counter (x -. y)
      | Hist { count; sum }, Some (Hist h) ->
        n, Hist { count = count -. h.count; sum = sum -. h.sum }
      | _ -> n, a)
    after

let counter (s : snapshot) n =
  match List.assoc_opt n s with Some (Counter v) | Some (Gauge v) -> v | _ -> 0.

let hist_count (s : snapshot) n =
  match List.assoc_opt n s with Some (Hist h) -> h.count | _ -> 0.

let hist_sum (s : snapshot) n =
  match List.assoc_opt n s with Some (Hist h) -> h.sum | _ -> 0.

(* sum/count mean of a histogram delta, 0 when nothing was observed *)
let hist_mean s n =
  let c = hist_count s n in
  if c > 0. then hist_sum s n /. c else 0.

(* every counter whose name matches [prefix] .. [suffix] *)
let counters_matching (s : snapshot) ~prefix ~suffix =
  List.filter_map
    (fun (n, v) ->
      match v with
      | Counter x when String.starts_with ~prefix n && String.ends_with ~suffix n -> Some x
      | _ -> None)
    s

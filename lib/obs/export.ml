(* ---------- human-readable span tree ---------- *)

let duration_to_string s =
  if s < 1e-3 then Printf.sprintf "%.1f us" (s *. 1e6)
  else if s < 1. then Printf.sprintf "%.2f ms" (s *. 1e3)
  else Printf.sprintf "%.3f s" s

let attrs_to_string = function
  | [] -> ""
  | attrs ->
    "  {"
    ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
    ^ "}"

let span_tree root =
  let buf = Buffer.create 256 in
  let line prefix connector (s : Span.t) =
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s  %s%s\n" prefix connector s.Span.span_name
         (duration_to_string s.Span.dur_s)
         (attrs_to_string s.Span.attrs))
  in
  let rec walk prefix (s : Span.t) =
    let children = s.Span.children in
    let last = List.length children - 1 in
    List.iteri
      (fun i child ->
        let connector, child_prefix =
          if i = last then "└─ ", prefix ^ "   " else "├─ ", prefix ^ "│  "
        in
        line prefix connector child;
        walk child_prefix child)
      children
  in
  line "" "" root;
  walk "" root;
  Buffer.contents buf

(* ---------- JSON helpers (hand-rolled; the layer is dependency-free) --- *)

let json_string = Json.quote

let json_float = Json.number

let json_attrs attrs =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ json_string v) attrs)
  ^ "}"

let rec span_json (s : Span.t) =
  Printf.sprintf
    "{\"name\":%s,\"dur_us\":%s,\"domain\":%d,\"attrs\":%s,\"children\":[%s]}"
    (json_string s.Span.span_name)
    (json_float (s.Span.dur_s *. 1e6))
    s.Span.domain
    (json_attrs s.Span.attrs)
    (String.concat "," (List.map span_json s.Span.children))

let span_jsonl s = span_json s ^ "\n"

(* ---------- metrics ---------- *)

let metrics_table () =
  let buf = Buffer.create 512 in
  let samples = Metrics.snapshot () in
  let counters =
    List.filter_map (function Metrics.Counter (n, v) -> Some (n, v) | _ -> None)
      samples
  in
  let gauges =
    List.filter_map (function Metrics.Gauge (n, v) -> Some (n, v) | _ -> None)
      samples
  in
  let histograms =
    List.filter_map
      (function Metrics.Histogram (n, st) -> Some (n, st) | _ -> None)
      samples
  in
  if histograms <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "%-34s %8s %10s %10s %10s %10s %10s\n" "histogram"
         "count" "mean" "p50" "p90" "p99" "max");
    List.iter
      (fun (name, (st : Metrics.histogram_stats)) ->
        let m = if st.Metrics.n = 0 then 0. else st.Metrics.sum /. float_of_int st.Metrics.n in
        (* seconds are named [_s]; ratios and sizes print as numbers *)
        let show =
          if String.ends_with ~suffix:"_s" name then duration_to_string
          else Printf.sprintf "%.3f"
        in
        Buffer.add_string buf
          (Printf.sprintf "%-34s %8d %10s %10s %10s %10s %10s\n" name
             st.Metrics.n (show m) (show st.Metrics.p50) (show st.Metrics.p90)
             (show st.Metrics.p99) (show st.Metrics.max_v)))
      histograms
  end;
  if counters <> [] then begin
    Buffer.add_string buf (Printf.sprintf "%-34s %12s\n" "counter" "value");
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "%-34s %12d\n" name v))
      counters
  end;
  if gauges <> [] then begin
    Buffer.add_string buf (Printf.sprintf "%-34s %12s\n" "gauge" "value");
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "%-34s %12.0f\n" name v))
      gauges
  end;
  if Buffer.length buf = 0 then Buffer.add_string buf "(no metrics recorded)\n";
  Buffer.contents buf

let sample_json ?(extra = []) sample =
  let tail =
    match extra with
    | [] -> ""
    | kvs ->
      ","
      ^ String.concat ","
          (List.map (fun (k, v) -> json_string k ^ ":" ^ v) kvs)
  in
  match sample with
  | Metrics.Counter (name, v) ->
    Printf.sprintf "{\"type\":\"counter\",\"name\":%s,\"value\":%d%s}"
      (json_string name) v tail
  | Metrics.Gauge (name, v) ->
    Printf.sprintf "{\"type\":\"gauge\",\"name\":%s,\"value\":%s%s}"
      (json_string name) (json_float v) tail
  | Metrics.Histogram (name, st) ->
    let m =
      if st.Metrics.n = 0 then 0. else st.Metrics.sum /. float_of_int st.Metrics.n
    in
    Printf.sprintf
      "{\"type\":\"histogram\",\"name\":%s,\"count\":%d,\"mean\":%s,\"min\":%s,\"max\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s%s}"
      (json_string name) st.Metrics.n (json_float m)
      (json_float st.Metrics.min_v)
      (json_float st.Metrics.max_v)
      (json_float st.Metrics.p50) (json_float st.Metrics.p90)
      (json_float st.Metrics.p99) tail

let metrics_jsonl () =
  Metrics.snapshot ()
  |> List.map (fun s -> sample_json s ^ "\n")
  |> String.concat ""

let write_metrics_file path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (metrics_jsonl ()))

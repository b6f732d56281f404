(** Exporters: a human-readable span-tree printer, a human-readable
    metrics table, and JSON-lines emitters for both (one JSON object per
    line, parseable by any stream-friendly JSON reader). *)

(** Render one root span as an indented tree with durations and
    attributes, newline-terminated. *)
val span_tree : Span.t -> string

(** One JSON object (a nested span tree) on a single line, newline-
    terminated. Test seam: the tests parse a span tree's JSON. *)
val span_jsonl : Span.t -> string

(** Human-readable table of every registered metric: counters, gauges,
    and histograms with count / mean / p50 / p90 / p99 / max. A histogram
    whose name ends in [_s] holds seconds and prints as durations; any
    other (a ratio, a batch size) prints as plain numbers. *)
val metrics_table : unit -> string

(** One metric sample as a compact JSON object (no trailing newline).
    [extra] appends pre-rendered [key:json] fields to the object — the
    telemetry stream uses it for [ts]/[delta]. *)
val sample_json : ?extra:(string * string) list -> Metrics.sample -> string

(** One JSON object per registered metric, one per line. Histogram lines
    carry [count], [mean], [min], [max], [p50], [p90], [p99]. Test seam:
    {!write_metrics_file} writes it; the tests parse it in memory. *)
val metrics_jsonl : unit -> string

(** Write {!metrics_jsonl} to [path] (truncating). *)
val write_metrics_file : string -> unit

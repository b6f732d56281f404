(** Named metrics: monotonic counters, gauges, and fixed-bucket latency
    histograms with percentile readouts.

    Instruments live in a process-wide registry keyed by name:
    [counter]/[gauge]/[histogram] are get-or-create, so independent
    modules (the MBDS pool, the kernel mapper, the CLI) can contribute to
    one surface. Asking for a name that exists with a different kind
    raises [Invalid_argument].

    Domain-safety: counters and gauges are atomics; histogram updates take
    a per-histogram mutex. All of it may be used from pool worker domains. *)

type counter

type gauge

type histogram

val counter : string -> counter

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val gauge : string -> gauge

val set_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** [histogram ?buckets name] — [buckets] are strictly increasing upper
    bounds; one implicit overflow bucket is added. Defaults to
    {!default_latency_buckets}. The bucket layout is fixed at first
    creation; a later get with different [buckets] returns the existing
    histogram unchanged. *)
val histogram : ?buckets:float array -> string -> histogram

(** [observe h v] accounts one observation. NaN is ignored. *)
val observe : histogram -> float -> unit

(** Test seam: the tests count a histogram's observations. *)
val histogram_count : histogram -> int

(** [percentile h p] for [p] in [[0, 100]]: the upper bound of the bucket
    holding the rank-⌈p/100·n⌉ observation, clamped to the observed
    maximum (so it is exact for the overflow bucket and never exceeds any
    observed value's bucket). [0.] when the histogram is empty. *)
val percentile : histogram -> float -> float

(** Mean of all observations; [0.] when empty. *)
val mean : histogram -> float

type histogram_stats = {
  n : int;
  sum : float;
  min_v : float;  (** 0. when empty *)
  max_v : float;  (** 0. when empty *)
  p50 : float;
  p90 : float;
  p99 : float;
}

val histogram_stats : histogram -> histogram_stats

type sample =
  | Counter of string * int
  | Gauge of string * float
  | Histogram of string * histogram_stats

(** Every registered instrument, sorted by name, read in one consistent
    pass under the registry lock: concurrent registrations cannot make an
    instrument that existed before the call disappear from the result,
    and each instrument's value is internally consistent (histogram
    stats are taken under that histogram's own lock). *)
val snapshot : unit -> sample list

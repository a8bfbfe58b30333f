(** Lightweight observability for simulator runs.

    A sink collects named integer counters, float gauges, log-bucketed
    histograms and accumulating wall-clock timers, and renders them as
    deterministic-keyed JSON. One sink belongs to one run (one [Machine.t])
    and is mutated from a single domain.

    The JSON schema (documented in DESIGN.md):
    {v
    { "label":    "<run label>",
      "counters": { "<name>": <int>, ... },
      "gauges":   { "<name>": <float>, ... },
      "hists":    { "<name>": {"count":i, "sum":i, "min":i, "max":i,
                               "buckets":[[<lo>,<count>], ...]}, ... },
      "timers":   { "<name>": {"total_s":f, "count":i, "max_s":f}, ... } }
    v} *)

type t

val create : ?label:string -> unit -> t
val set_label : t -> string -> unit
val label : t -> string

(** [count t name n] adds [n] to counter [name] (created at 0). *)
val count : t -> string -> int -> unit

val incr : t -> string -> unit

(** Current value of a counter (0 when never touched). *)
val counter : t -> string -> int

(** [gauge t name v] sets gauge [name] to [v] (last write wins). *)
val gauge : t -> string -> float -> unit

val gauge_value : t -> string -> float option

(** [observe t name v] adds one observation to the log-bucketed histogram
    [name]. Bucket 0 holds values [<= 0]; bucket [i >= 1] holds the range
    [2^(i-1) .. 2^i - 1], so 63 buckets cover every non-negative int
    including [max_int]. *)
val observe : t -> string -> int -> unit

(** [observe_each t name f xs] is [List.iter (fun x -> observe t name (f x))
    xs], in order, with one lookup of [name]. An empty [xs] leaves the sink
    unchanged. *)
val observe_each : t -> string -> ('a -> int) -> 'a list -> unit

(** Total observations recorded under histogram [name] (0 when absent). *)
val hist_count : t -> string -> int

(** Non-empty buckets of histogram [name] as [(range_lo, count)] pairs in
    ascending range order; [[]] when the histogram was never observed. *)
val hist_buckets : t -> string -> (int * int) list

(** [span t name f] runs [f], accumulating its wall time under timer
    [name] (also when [f] raises). *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Record an externally measured duration under timer [name]. *)
val timer_record : t -> string -> float -> unit

(** Accumulated seconds under a timer (0 when never touched). *)
val timer_total : t -> string -> float

(** One run's telemetry as a single-line JSON object, keys sorted. *)
val to_json : t -> string

(** One run's metrics in the Prometheus text exposition format:
    deterministic (sorted names, fixed float formatting), every series
    labelled [{run="<label>"}]. Counters and gauges map directly; timers
    become [_seconds_total]/[_invocations_total] counters; log-bucketed
    histograms become cumulative-bucket histogram series. *)
val to_prometheus : t -> string

(** Drop every metric, returning the sink to its just-created state (label
    kept). *)
val reset : t -> unit

(** Aggregate many per-run sinks: counters and gauges become
    sum/mean/min/max/runs distributions; timers sum totals and counts. *)
val aggregate_json : t list -> string

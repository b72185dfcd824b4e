(** Process-global named metrics: counters, gauges, histograms.

    Instruments are created once (typically at module initialization,
    while the program is still single-threaded) and updated from any
    domain: all mutation goes through [Atomic], so pool lanes bump the
    same counter without locks or per-domain aggregation.

    {b Disabled path.}  Like {!Trace}, collection is off by default.
    Update functions check one mutable flag and return; call sites that
    would need to {i compute} a value first should guard on {!enabled}
    themselves.  Instrument creation is always allowed (and cheap) so
    modules can declare their instruments unconditionally at init.

    {b Stable names.}  Metric names are part of the tool's surface (they
    appear in [--metrics-out] dumps and are matched by tests); DESIGN.md
    §7 lists them.  Use [subsystem.thing] dotted lower-case. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

type counter
(** Monotonically increasing integer. *)

val counter : string -> counter
(** Create (or return the existing) counter with this name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

type gauge
(** A float that goes up and down; last write wins. *)

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram
(** Cumulative histogram with upper-inclusive buckets: an observation
    [v] lands in the first bucket whose bound [le] satisfies [v <= le],
    or in the implicit [+inf] overflow bucket.  Also tracks count and
    sum, so dumps expose the mean. *)

val histogram : ?buckets:float array -> string -> histogram
(** Default buckets are powers of two from 1 to 2^20 — suited to the
    integer-ish quantities we observe (probe lengths, row counts,
    nanosecond timings at microsecond-to-millisecond scale divide these
    by 1e3 first).  Passing [buckets] requires a strictly increasing
    array.  Re-creating an existing histogram returns the original and
    ignores the new bounds. *)

val observe : histogram -> float -> unit
(** Record one value. *)

val observe_counts : histogram -> int array -> sum:float -> unit
(** [observe_counts h counts ~sum] records observations a caller has
    already bucketed: [counts.(i)] of them in the [i]-th bucket (bounds
    order, the last entry the [+inf] overflow), their values adding up to
    [sum].  The histogram ends as if each had been {!observe}d — exactly,
    when the values are integers whose running sum stays below 2^53.
    For per-tuple loops, which count into a local array and flush once
    per pass.  Raises [Invalid_argument] when [counts] does not have one
    entry per bucket. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** [(le, cumulative_count)] per bound, ending with [(infinity, total)].
    Exposed for tests of the bucket-boundary semantics. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1], clamped)
    by linear interpolation inside the first cumulative bucket whose
    count reaches [q * count] — the same rule as Prometheus'
    [histogram_quantile].  The lower edge of the first bucket is taken
    as [0] when its bound is positive.  A rank landing in the [+inf]
    overflow bucket returns the largest finite bound (the histogram
    cannot say more); an empty histogram returns [nan]. *)

val all_counters : unit -> (string * counter) list
val all_gauges : unit -> (string * gauge) list

val all_histograms : unit -> (string * histogram) list
(** Registry listings sorted by name, for exporters ({!Promexp}). *)

val snapshot : unit -> string
(** JSON object with all instruments sorted by name:
    [{"counters":{...},"gauges":{...},"histograms":{name:{"count":n,
    "sum":s,"buckets":[{"le":b,"count":c},...]}}}].  Values reflect a
    quiescent point; concurrent updates may tear between instruments
    but never within a counter. *)

val reset : unit -> unit
(** Zero every instrument (names and bucket layouts survive). *)

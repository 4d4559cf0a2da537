(** Metrics registry: counters, gauges and fixed-bucket histograms keyed
    by [(name, labels)].

    Design goals (see DESIGN.md "Observability"):

    - handles ([Counter.t], [Gauge.t], [Histogram.t]) are resolved once at
      registration and are plain mutable records, so the hot path is a
      single unboxed field update — no hashing, no allocation;
    - registration is idempotent: asking for an existing [(name, labels)]
      pair returns the same handle (a type mismatch raises
      [Invalid_argument]);
    - registries from independent runs can be {!merge}d, optionally adding
      distinguishing labels (e.g. [setup="UIP+NRBC"]), which is how the
      CLI combines a whole comparison matrix into one snapshot. *)

type t

(** Label sets are normalized (sorted by key, deduplicated) so label order
    never distinguishes two series. *)
type labels = (string * string) list

val create : unit -> t

type counter
type gauge
type histogram

(** [counter t name] registers (or finds) a monotonically increasing
    integer counter. *)
val counter : t -> ?labels:labels -> string -> counter

val gauge : t -> ?labels:labels -> string -> gauge

(** [histogram t ~buckets name] — [buckets] are strictly increasing upper
    bounds; an overflow (+Inf) bucket is implicit.  Re-registering with
    different buckets raises [Invalid_argument]. *)
val histogram : t -> ?labels:labels -> ?buckets:float array -> string -> histogram

(** Default latency/size buckets: 1..5000 in roughly geometric steps. *)
val default_buckets : float array

module Counter : sig
  type t = counter

  val incr : t -> unit

  (** [add c n] adds [n] to [c]. *)
  val add : t -> int -> unit

  val get : t -> int

  (** A counter of no registry: the value of a handle that is not
      resolved yet.  Test for it with [==]; it is never incremented. *)
  val unresolved : t
end

module Gauge : sig
  type t = gauge

  val set : t -> float -> unit
  val add : t -> float -> unit
  val get : t -> float
end

module Histogram : sig
  type t = histogram

  val observe : t -> float -> unit

  (** [observe_int h n] is [observe h (float_of_int n)], allocating
      nothing. *)
  val observe_int : t -> int -> unit
  val count : t -> int
  val sum : t -> float

  (** [quantile h q] estimates the [q]-quantile by linear interpolation
      inside the bucket containing the rank (the Prometheus
      [histogram_quantile] estimator); [None] when empty.  Estimates in
      the overflow bucket are clamped to the largest finite bound. *)
  val quantile : t -> float -> float option
end

(** {1 Handles resolved on first use}

    A component that counts into a labelled family keeps each handle
    after its first event, so later events bump a field instead of
    searching the registry, and a series is still registered only once
    it has something to count. *)

(** Counters keyed by two label values (say an operation pair), newest
    first.  Lookups are allocation-free. *)
module Handles : sig
  type t

  val empty : t

  (** [find t a b] is the counter kept under [(a, b)], or
      {!Counter.unresolved}. *)
  val find : t -> string -> string -> counter

  val add : t -> string -> string -> counter -> t
end

(** {1 Introspection and aggregation} *)

(** [fold t f init] visits every registered series in registration order.
    The visitor receives the name, normalized labels and the metric
    (opaque beyond the accessors above). *)
type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

val fold : t -> ('a -> string -> labels -> metric -> 'a) -> 'a -> 'a

(** [counter_value t name ~labels] — 0 if absent. *)
val counter_value : t -> ?labels:labels -> string -> int

(** [counter_total t name] sums a counter family across all label sets. *)
val counter_total : t -> string -> int

val gauge_value : t -> ?labels:labels -> string -> float option

(** [merge ~extra_labels dst src] adds every series of [src] into [dst]
    under [labels @ extra_labels]: counters and histograms accumulate,
    gauges take the source value.  Raises [Invalid_argument] on a
    name/type or bucket mismatch. *)
val merge : ?extra_labels:labels -> t -> t -> unit

(** {1 Exporters} *)

(** Prometheus text exposition format (0.0.4): [# TYPE] lines, cumulative
    [_bucket{le=...}] series, [_sum] and [_count] per histogram. *)
val to_prometheus : t -> string

(** One line per series; histograms as count/mean/p50/p90/p99. *)
val pp_summary : Format.formatter -> t -> unit

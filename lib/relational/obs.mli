(** Runtime observability: counters, timers, a tiny log-scale histogram,
    and per-operator execution statistics for plan profiling.

    The paper's performance argument (Sections 2.2, 3.2-3.3) is that the
    relational optimizer picks the right indexes over the generic schema;
    this module makes that checkable at run time. {!Executor.run} accepts
    a {!profile} built from the plan about to execute and charges every
    operator with the rows it produced, the index probes it issued, the
    rows it buffered into hash builds, and its (inclusive) wall time.
    [EXPLAIN ANALYZE] renders the annotated tree. *)

val now_s : unit -> float
(** Wall-clock seconds (sub-microsecond resolution). *)

(** Monotonically increasing event counter. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : ?by:int -> t -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Accumulating wall-clock timer. *)
module Timer : sig
  type t

  val create : unit -> t

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, adding its elapsed time (and one sample). *)

  val add_s : t -> float -> unit
  val total_s : t -> float
  val total_ms : t -> float
  val samples : t -> int
  val reset : t -> unit
end

(** Log2-bucketed latency histogram (buckets of microseconds). *)
module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> float -> unit
  (** Record one duration, in seconds. *)

  val count : t -> int

  val quantile : t -> float -> float
  (** Upper bound, in seconds, of the bucket containing quantile [q]
      (0 <= q <= 1); 0 when empty. *)

  val to_string : t -> string
  (** Compact one-line rendering: [count, p50, p95, max bucket]. *)

  val max_s : t -> float
  (** Largest duration observed, in seconds; 0 when empty. *)
end

(** {2 Metric registry}

    Process-wide named metrics. Long-lived subsystems (the plan cache,
    the path-resolution cache, the query server) register their
    counters/timers/histograms under dotted names once at start-up;
    {!dump_json} then renders every registered metric as one JSON
    snapshot — the payload of the server's METRICS request and of the
    CLI's [--metrics-json] flag. Registration is idempotent per name
    (last registration wins) and domain-safe. *)

val register_counter : string -> Counter.t -> unit
val register_timer : string -> Timer.t -> unit
val register_histogram : string -> Histogram.t -> unit

val register_gauge : string -> (unit -> int) -> unit
(** A read-through metric: the thunk is sampled at dump time. *)

val dump_json : unit -> string
(** All registered metrics as a JSON object with one section per metric
    kind, names sorted, e.g.
    {v
    { "counters": { "server.accepted": 12, ... },
      "gauges": { "engine.plan_cache.hits": 40, ... },
      "timers": { "name": { "total_ms": 8.1, "samples": 3 }, ... },
      "histograms": { "server.query_latency":
        { "count": 52, "p50_ms": 1.0, "p95_ms": 4.1, "p99_ms": 8.2,
          "max_ms": 7.9 }, ... } }
    v} *)

(** {2 Plan profiling} *)

type op_stats = {
  mutable loops : int;       (** times the operator was (re)started *)
  mutable rows : int;        (** rows produced, summed over loops *)
  mutable probes : int;      (** index lookups / range-scan starts *)
  mutable build_rows : int;  (** rows buffered into a hash-join build *)
  mutable time_s : float;    (** inclusive wall time spent pulling rows *)
}

type profile
(** Mutable per-operator statistics for one plan tree, keyed by the
    physical identity of each plan node (including expression subplans). *)

val create : Plan.t -> profile

val find : profile -> Plan.t -> op_stats option
(** The stats slot of a node of the profiled plan; [None] for foreign
    nodes. *)

val observed_batches : live:('a -> int) -> op_stats -> 'a Seq.t -> 'a Seq.t
(** Wrap an operator's output sequence of row batches so rows and
    (inclusive) wall time are charged to [op_stats] as the sequence is
    consumed: each pulled batch [b] charges [live b] rows. *)

val annotation : profile -> Plan.t -> string
(** The [" (rows=... time=...)"] suffix for one operator line, for use as
    [Plan.to_string ~annot]; empty for nodes outside the profile. *)

val annotate : profile -> Plan.t -> string
(** The full plan tree rendered with per-operator statistics. *)

val total_rows : profile -> int
(** Rows produced summed over all operators (work done, not result size). *)

val total_probes : profile -> int
val total_build_rows : profile -> int

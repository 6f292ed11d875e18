(** Log-bucketed (HDR-style) histograms: the per-link send-to-delivery
    latency of a [Sim.Telemetry] collector.

    Counters say how much work happened; a histogram says how it was
    distributed — one slow link hides inside a total but not inside a
    p99.  Buckets are geometric with 4 sub-buckets per octave, so
    quantiles carry a bounded relative error of [2^(1/4) - 1 ~ 19%]
    while [observe] stays O(1) with no allocation.

    Values are nonnegative floats (negative and NaN observations clamp
    to 0).

    A histogram has one owner and no lock: a collector's histograms are
    written by the one engine that runs on the collector's domain, and
    collectors from parallel work items are summed ({!merge}) after the
    join.  Do not observe into one histogram from two domains. *)

type t

val create : unit -> t

val observe : t -> float -> unit

val observe_int : t -> int -> unit

val clear : t -> unit

(** {2 Statistics} *)

val count : t -> int
val sum : t -> float
val mean : t -> float

val min_value : t -> float
val max_value : t -> float
(** Exact extremes of everything observed (0 when empty). *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [[0, 100]] — the bucket-resolution
    quantile, clamped into [[min_value, max_value]]. *)

type summary = {
  s_count : int;
  s_sum : float;
  s_mean : float;
  s_min : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

val summary : t -> summary

val bucket_counts : t -> (int * int) list
(** The nonzero buckets as [(index, count)] pairs in index order — the
    exact distribution {!merge} sums, exposed so merge laws can be
    checked bucket for bucket (not just through quantiles). *)

val merge : t -> t -> t
(** Bucket-wise sum of two histograms into a fresh one (exact):
    associative and commutative on count, sum, min, max, and every
    bucket count, with an empty histogram as identity. *)

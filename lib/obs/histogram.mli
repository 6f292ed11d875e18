(** Log-bucketed (HDR-style) histograms for latency and size
    distributions.

    Counters say how much work happened; histograms say how it was
    distributed — a single slow [sim.settle] hides inside a total but
    not inside a p99.  Buckets are geometric with 4 sub-buckets per
    octave, so quantiles carry a bounded relative error of
    [2^(1/4) - 1 ~ 19%] while [observe] stays O(1) with no allocation:
    cheap enough to keep in hot paths permanently.

    Values are nonnegative floats (negative and NaN observations clamp
    to 0); by convention time is recorded in nanoseconds and metric
    names carry a [_ns] suffix so renderers can humanise them.

    Create histograms through {!Metrics.histogram} to register them in
    the process-wide registry; a bare {!create} is for scratch use
    (tests, {!diff} results). *)

type t

val create : unit -> t

val observe : t -> float -> unit

val observe_int : t -> int -> unit

val clear : t -> unit

val copy : t -> t
(** Detached deep copy — the "before" snapshot used by {!diff}. *)

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

val diff : before:t -> t -> t
(** [diff ~before after] — the observations present in [after] but not
    in the {!copy} [before].  Counts and sums are exact; min/max are
    bucket-resolution approximations unless [before] was empty. *)

val bucket_counts : t -> (int * int) list
(** The nonzero buckets as [(index, count)] pairs in index order — the
    exact distribution {!merge} sums, exposed so merge laws can be
    checked bucket for bucket (not just through quantiles). *)

val merge : t -> t -> t
(** Bucket-wise sum of two histograms (exact): associative and
    commutative on count, sum, min, max, and every bucket count, with
    an empty histogram as identity. *)

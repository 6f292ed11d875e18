(** The one time source for the whole tool chain.

    Monotonic (CLOCK_MONOTONIC via the bechamel stubs): immune to NTP
    steps and wall-clock adjustments, unlike [Unix.gettimeofday], and
    measuring elapsed real time, unlike [Sys.time] (CPU time).  Every
    deadline, span timestamp, and reported duration in the repository
    goes through this module so that numbers from different layers are
    comparable. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary (boot-time) origin.  Only differences
    are meaningful. *)

val elapsed_s : int64 -> float
(** [elapsed_s t0] — seconds since [t0] (a previous {!now_ns}). *)

val ns_to_us : int64 -> float
(** Nanoseconds to microseconds (the Chrome trace-event unit). *)

val stable_times : unit -> bool
(** Whether rendered wall-clock readings are masked: the
    [PAREDOWN_STABLE_TIMES] environment variable is set, non-empty and
    not ["0"].  Then every humanised time renders as ["--"] (metrics
    tables, [Report.Timing]) and served responses carry a [null]
    elapsed time, so two runs of the same experiment diff
    byte-identically — the CI [--jobs 2] vs [--jobs 1] gates rely on
    it (doc/performance.md).  Read at each call, so setting the
    variable after start-up takes effect. *)

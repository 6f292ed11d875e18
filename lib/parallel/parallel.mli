(** Deterministic fan-out of independent work items over stdlib
    [Domain]s.

    The contract that keeps multicore sweeps byte-identical to
    sequential ones has three parts, and this module only supplies the
    last:

    - the {e caller} derives every item's randomness up front (one
      [Prng.split] per item, in the same order the sequential code
      would), so no worker ever touches a shared generator;
    - per-item work only accumulates into domain-safe sinks
      ({!Obs.Metrics} counters), whose totals are order-independent
      sums, or into state the item owns (a [Sim.Telemetry] collector
      and its latency histograms), which the caller combines after
      the join;
    - {!map} returns results {e in input order}, whatever order the
      domains finished in.

    Under that contract [map ~jobs:n f items] is observationally
    [List.map f items] for every [n] — the property CI enforces by
    diffing experiment output at [--jobs 2] against [--jobs 1] (with
    wall-clock readings masked; see doc/performance.md). *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item and returns the
    results in input order.  [jobs <= 1] (or fewer than two items) is
    exactly [List.map f items] on the calling domain — no domain is
    spawned, so the sequential path stays the sequential code.
    Otherwise [min jobs (length items) - 1] worker domains are spawned
    (the calling domain works too) and items are handed out by a shared
    atomic cursor in index order.  While {!Obs.Journal.capturing}, item
    [i] runs in an {!Obs.Journal.capture} on lane [i + 1] and the
    buffers are appended in input order after the join.

    If any application raises, the exception of the {e lowest-index}
    failing item — the one [List.map f items] would have raised — is
    re-raised on the calling domain after all domains have been joined.
    Items above the lowest failing index may be abandoned; items below
    it always run, so the reported failure is deterministic and
    jobs-invariant, like everything else. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks k xs]: [k] contiguous runs of [xs] (fewer when [xs] is
    shorter), their lengths differing by at most one, longest first. *)

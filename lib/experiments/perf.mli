(** The perf-snapshot suite: one deterministic workload per group,
    timed with min-of-k repeats and frozen into an {!Obs.Snapshot.t}.

    [paredown perf record] writes the snapshot and [paredown perf
    compare] gates two of them, so the recorded and the gated numbers
    come from exactly the same code paths. *)

type group = {
  name : string;
      (** the group: kernel, exhaustive, table1, table2,
          scale, worstcase, ablation, codegen, sim, faults, reliability,
          power, frontend, journal, sim_kernel, telemetry, service *)
  doc : string;
  run : unit -> unit;
}

val groups : group list

val time_key : string -> string
(** [time_key "table1"] = ["perf.table1_ns"] — the [times_ns] key a
    group records under. *)

val sleep_hook : string -> unit
(** Busy-wait stall injected into the named group's timed region when
    [PAREDOWN_PERF_SLEEP_GROUP] matches it ([PAREDOWN_PERF_SLEEP_MS]
    milliseconds, default 100).  Exists so the regression gate can be
    demonstrated — and tested — without editing code. *)

type journal_overhead = {
  guard_ns : float;
      (** measured cost of one disabled emit-site guard
          ([Obs.Journal.enabled ()] read + branch; least of 3 bursts of 3
          loops, spread between the sweep repeats) *)
  events : int;  (** events a journaled table1 sweep emits *)
  sweep_ns : float;  (** journal-disabled table1 sweep wall time (min of 3) *)
  ratio : float;  (** [guard_ns * events / sweep_ns] — the disabled-path
                      overhead fraction the ≤1% claim is about *)
}

val journal_overhead : ?iters:int -> unit -> journal_overhead
(** Measure the disabled-journal overhead of the table1 sweep.
    Uninstalls any current journal first (it measures the disabled
    path) and leaves the journal uninstalled.  [iters] (default 1e6)
    is the guard-timing loop length. *)

type telemetry_overhead = {
  t_guard_ns : float;
      (** measured cost of one unarmed counting site (a branch on a
          [false] engine flag; least of 3 bursts of 3 loops, spread
          between the sweep repeats) *)
  t_events : int;
      (** counting sites an unarmed sweep passes: schedule + process
          per event, two per activation, one per sensor event and one
          per settle *)
  t_sweep_ns : float;
      (** unarmed wall time of settling every Table 1 design under a
          seeded stimulus (min of 3) *)
  t_ratio : float;
      (** [t_guard_ns * t_events / t_sweep_ns] — the disabled-path
          overhead fraction the ≤1% claim in doc/network-telemetry.md
          is about *)
}

val telemetry_overhead : ?iters:int -> unit -> telemetry_overhead
(** Measure the disabled-telemetry overhead of a simulation sweep over
    the Table 1 designs (the simulator hosts every counting site; the
    search path has none).  [iters] (default 1e6) is the guard-timing
    loop length. *)

val record : ?repeats:int -> ?config:(string * string) list -> unit -> Obs.Snapshot.t
(** Run every group once untimed (warmup; the pass the counters and
    histograms are captured from, so they are independent of
    [repeats]), then [repeats] (default 3, min 1) timed passes per
    group keeping the minimum wall time.  Resets the metrics registry
    first.  [config] entries are recorded into the snapshot
    fingerprint alongside ["repeats"]. *)

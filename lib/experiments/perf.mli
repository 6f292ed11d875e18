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

type overhead = {
  guard_ns : float;
      (** measured cost of one disabled guard, a load of a [false] flag
          and a branch (sixteen per loop pass; least of 3 bursts of 3
          loops, spread between the sweep repeats) *)
  sites : int;  (** guards the sweep passes *)
  sweep_ns : float;  (** disabled sweep wall time (min of 3) *)
  ratio : float;
      (** [guard_ns * sites / sweep_ns] — the disabled-path overhead
          fraction the ≤1% claims are about *)
}

val journal_overhead : ?iters:int -> unit -> overhead
(** The disabled-journal overhead of the table1 sweep; [sites] is the
    number of events a journaled sweep emits.  Uninstalls any current
    journal first (it measures the disabled path) and leaves the
    journal uninstalled.  [iters] (default 1e6) is the number of
    guards a timing loop runs. *)

val telemetry_overhead : ?iters:int -> unit -> overhead
(** The disabled-telemetry overhead of a simulation sweep over the
    Table 1 designs (the simulator hosts every counting site; the
    search path has none); [sites] counts schedule and process per
    event, two per activation and one per sensor event. *)

val record : ?repeats:int -> ?config:(string * string) list -> unit -> Obs.Snapshot.t
(** Run every group once untimed (warmup; the pass the counters are
    captured from, so they are independent of [repeats]), then
    [repeats] (default 3, min 1) timed passes per group keeping the
    minimum wall time.  Resets the metrics registry first.  [config]
    entries are recorded into the snapshot fingerprint alongside
    ["repeats"]. *)

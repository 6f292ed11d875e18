(** Process-wide registry of named counters.

    Counters are the paper's work quantities made first-class: PareDown
    fit checks (§4.2's [n(n+1)/2] bound), exhaustive search nodes,
    simulator events, emitted C bytes.  Instrumented code creates its
    counters once at module initialisation and bumps them
    unconditionally — an increment is a single atomic add, cheap
    enough for hot loops.  A mean is a ratio of two counters (e.g.
    [sim.settle_iterations] over [sim.settles]); a distribution is in
    the artifact a run already returns (verdicts, reports, journal
    events, a [Sim.Telemetry] collector's per-tick latency counts).

    The registry is global and cumulative; harnesses that want
    per-phase numbers wrap the phase in {!with_scope} (see
    [bin/run_experiments.ml]) or call {!reset} between phases. *)

type counter

val counter : ?doc:string -> string -> counter
(** [counter name] registers (or retrieves — registration is idempotent
    per name) the counter [name].  Conventional names are
    dot-separated, e.g. ["core.paredown.fit_checks"]. *)

val incr : counter -> unit

val add : counter -> int -> unit
(** [add c n] — bump by [n]; negative [n] is allowed but unusual. *)

val counter_value : counter -> int

(** {2 Inspection} *)

type entry = {
  name : string;
  doc : string;
  value : int;
}

val snapshot : ?prefix:string -> unit -> entry list
(** All registered counters, sorted by name; [prefix] filters by name
    prefix. *)

val find : string -> entry option

val reset : unit -> unit
(** Zero every counter (registrations persist). *)

val with_scope : (unit -> 'a) -> 'a * entry list
(** [with_scope f] snapshots the registry, runs [f], and returns its
    result together with the {e per-scope} counter deltas.  Counters
    first registered inside the scope appear with their full value.
    This is the safe replacement for the reset-then-read pattern on
    the cumulative registry: nothing is zeroed, so concurrent
    whole-process totals stay intact.  If [f] raises, the exception
    propagates and no reading is produced. *)

(** {2 Rendering} *)

val is_time_name : string -> bool
(** The [_ns] naming convention: [true] for quantities whose values are
    nanoseconds and should render as humanised times (the perf
    snapshot's [times_ns]). *)

val pp_quantity : time:bool -> float -> string
(** ["1.23ms"] when [time], ["%g"] otherwise. *)

val render_table : string list list -> string
(** Aligned columns (first left, rest right) over [header :: rows];
    shared by the metric renderers and the perf-compare CLI. *)

val render_entries : ?omit_zero:bool -> entry list -> string
(** Aligned name/count/doc table.  [omit_zero] (default [false]) drops
    counters still at zero. *)

val to_table : ?prefix:string -> ?omit_zero:bool -> unit -> string
(** [render_entries] over a fresh {!snapshot}. *)

(** Versioned, machine-readable perf snapshots with diff/merge and a
    noise-aware regression gate.

    A snapshot freezes the full metrics registry (counters and
    histogram summaries) plus named wall-times into a JSON document:

    {v
    { "schema": "paredown-perf-snapshot",
      "version": 1,
      "git_rev": "4a76b36..." | null,
      "ocaml_version": "5.1.0",
      "config": { "repeats": "3", ... },
      "times_ns": { "perf.table1_ns": 1234567, ... },
      "metrics": {
        "core.paredown.fit_checks": 1360,
        "sim.settle_events": { "count": 90, "sum": ..., "mean": ...,
                               "min": ..., "p50": ..., "p90": ...,
                               "p99": ..., "max": ... } } }
    v}

    The gate ({!gate}) distinguishes the two kinds of quantity this
    tool chain produces: {e work counters} are deterministic (same
    seeds, same algorithm, same counts on every machine), so they get a
    tight ratio; {e wall times} are noisy, so they get a looser ratio
    plus an absolute floor, and recorders suppress scheduler noise
    further by taking the min of k runs. *)

val schema_name : string
val schema_version : int

type value =
  | Int of int
  | Float of float  (** a non-integer number read from a document *)
  | Dist of Histogram.summary

type t = {
  git_rev : string option;
  ocaml_version : string;
  config : (string * string) list;  (** run fingerprint (repeats, flags) *)
  metrics : (string * value) list;
  times_ns : (string * float) list; (** named wall-times, nanoseconds *)
}

val git_rev : ?dir:string -> unit -> string option
(** The current git revision, read from [.git] directly (no
    subprocess); [None] outside a repository. *)

val make :
  ?git_rev:string ->
  ?config:(string * string) list ->
  ?times_ns:(string * float) list ->
  metrics:Metrics.entry list ->
  unit ->
  t
(** Build a snapshot from explicit registry entries (e.g. captured
    before timed repeats so counters stay repeat-invariant). *)

val capture :
  ?git_rev:string ->
  ?config:(string * string) list ->
  ?times_ns:(string * float) list ->
  unit ->
  t
(** {!make} over the live registry ({!Metrics.snapshot}). *)

(** {2 Serialisation} *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val to_string : t -> string
val of_string : string -> (t, string) result
val write_file : t -> string -> unit
val read_file : string -> (t, string) result

(** {2 Comparison} *)

type delta = {
  d_name : string;
  d_time : bool;
  d_base : float option;  (** [None]: absent from the base snapshot *)
  d_cur : float option;
}

val diff : base:t -> t -> delta list
(** Every time and scalar metric present in either snapshot (histogram
    entries compare by p90). *)

type regression = {
  r_metric : string;
  r_base : float;
  r_cur : float;
  r_ratio : float;
}

val gate :
  ?max_ratio:float ->
  ?min_abs_ns:float ->
  ?counter_max_ratio:float ->
  ?min_abs_count:float ->
  base:t ->
  t ->
  regression list
(** Regressions of [cur] against [base], worst ratio first; empty means
    the gate passes.  A wall-time regresses when it exceeds [base *
    max_ratio] (default 1.5) {e and} grows by more than [min_abs_ns]
    (default 1ms) — the floor keeps microsecond-scale groups from
    tripping on jitter.  A counter regresses when it exceeds [base *
    counter_max_ratio] (default 1.1) and grows by more than
    [min_abs_count] (default 1000): counters are deterministic, so a
    tight ratio is safe even across machines. *)

val render_diff : base:t -> t -> string
(** The per-metric delta table printed by [paredown perf compare]. *)

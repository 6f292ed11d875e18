(** Deterministic Monte-Carlo estimation of expected degradation.

    A candidate partitioning is scored by synthesising it
    ({!Codegen.Replace.apply}), replaying one reproducible stimulus
    script under [trials] independently seeded instantiations of a
    {!Family.t}, classifying each replay with
    {!Sim.Degrade.classify_each}, and averaging the per-trial
    {!Sim.Degrade.score}s.  The result is the {e expected degradation}
    in [[0, 1]] — 0 when every trial absorbed its faults, 1 when every
    trial livelocked — together with a normal-approximation confidence
    interval.

    Determinism: trial seeds are pre-drawn from one PRNG stream before
    any fan-out, plans are pure functions of (family, seed, graph), and
    {!Parallel.map} returns results in input order — so an estimate is a
    pure function of (config, network) and byte-identical across
    [--jobs N].

    Caching: scoring is the expensive step of reliability-aware search
    (1 + trials full simulations per candidate), and both the λ sweep
    and the weighted searches revisit the same partitionings, so
    {!estimate_solution} memoizes behind {!fingerprint} — a canonical
    rendering of (config, network digest, sorted partitions).  The
    cache is shared across λ values on purpose: λ only reweights the
    objective, it never changes a partition's severity. *)

module Graph = Netlist.Graph

type config = {
  seed : int;  (** root seed for the stimulus script and the trial seeds *)
  trials : int;  (** Monte-Carlo sample size (must be positive) *)
  family : Family.t;  (** fault-plan family instantiated per trial *)
  steps : int;  (** stimulus script length (sensor flips) *)
  spacing : int;  (** maximum ticks between flips *)
  settle_limit : int;  (** per-step event budget of the faulty replays *)
}

val default_config : config
(** 32 trials of [brownout:0.3@40,110,180] over a 12-flip script
    (spacing 30), seed 1, settle limit 100_000. *)

(** {1 Blame attribution}

    A scalar severity says {e how much} a partitioning degrades, not
    {e where}: which link's drops, which node's brownouts.  Every
    estimate therefore carries a {!blame} vector.  A fault-armed trial
    engine counts the strikes on each link and the brownouts of each
    node as they happen ({!Sim.Engine.link_strikes},
    {!Sim.Engine.node_resets}), and each trial's {!Sim.Degrade.run}
    carries those counts.  The trial's score-mass (score / trials) is
    split over the fault sites in proportion to how many strikes each
    absorbed during that trial — so the components always sum (±ε) to
    [mean].  Blame never reads a {!Sim.Telemetry} collector; the one
    {!estimate_network} may gather into is for reports only.  Degraded
    trials with no site-attributable strike (only static stuck-at
    faults can cause this) accumulate in [b_unattributed].  See
    doc/network-telemetry.md. *)

type blame = {
  b_links : (Graph.edge * float) list;
      (** severity mass per struck link, sorted by
          {!Graph.compare_edge} *)
  b_nodes : (Netlist.Node_id.t * float) list;
      (** severity mass per reset-struck node, sorted by id *)
  b_unattributed : float;
}

val empty_blame : blame

val blame_total : blame -> float
(** Sum of every component — equals the estimate's [mean] up to float
    rounding. *)

val blame_table : blame -> string
(** Rendered site table, heaviest site first, with a total row. *)

val blame_to_json : blame -> Obs.Json.t
(** [{"links": [{link, severity}...], "nodes": [{node, severity}...],
    "unattributed": x, "total": x}]. *)

type estimate = {
  trials : int;
  identical : int;
  recovered : int;
  wrong : int;
  diverged : int;  (** per-outcome trial counts; they sum to [trials] *)
  mean : float;  (** expected degradation: average per-trial score *)
  stderr : float;  (** standard error of [mean] (0 with one trial) *)
  lo : float;
  hi : float;  (** 95% normal-approximation interval, clamped to [0,1] *)
  injected : Sim.Fault.stats;  (** faults that struck, summed over trials *)
  blame : blame;  (** where the severity came from *)
}

val pp_estimate : Format.formatter -> estimate -> unit
(** e.g. ["0.203 ±0.071 (ok 22 gl 6 wr 4 dv 0 / 32)"]. *)

val script : config -> Graph.t -> Sim.Stimulus.script
(** The stimulus script the estimator replays: [Stimulus.random] over
    the network's sensors, derived from [config.seed].  Sensors keep
    their node ids under synthesis rewriting, so the script built from a
    flat design drives its synthesised counterpart unchanged. *)

val estimate_network :
  ?jobs:int -> ?telemetry:Sim.Telemetry.t -> config -> Graph.t -> estimate
(** Score a network as-is (no rewriting): one clean reference run, then
    [trials] faulty replays, each under the family's plan for a seed
    drawn from a stream rooted at [config.seed] (distinct from the
    script's), in trial order — so the first trial's plan does not
    depend on [trials].  This is the library's one Monte-Carlo trial
    driver: the reliability sweep, the fault-tolerance experiment and
    the network observatory all run their trials here.

    The trials split into [jobs] contiguous chunks (default 1), each
    replayed on one engine restarted between trials
    ({!Sim.Degrade.classify_each}), and the chunks fan out over [jobs]
    domains.  [telemetry] gathers every faulty replay: each chunk
    replays into a collector of its own, shaped like [telemetry]
    (timeline included), and the chunk collectors are added into
    [telemetry] in chunk order ({!Sim.Telemetry.add}), so the merged
    readings cannot depend on [jobs] either.  The clean reference is
    never gathered.  When no trial diverges, an estimate costs exactly
    [steps × (trials + 1)] settles. *)

(** {1 The memo cache} *)

type cache

val default_capacity : int
(** 4096 memoized estimates — generous for any sweep, bounded for a
    resident daemon. *)

val cache : ?capacity:int -> unit -> cache
(** A fresh cache, bounded to [capacity] (default {!default_capacity})
    entries with least-recently-used eviction; evictions are counted
    here and on the [reliability.cache_evictions] metric.  Under a
    capacity larger than the working set the cache behaves exactly like
    the old unbounded table.  Not thread-safe: consult it from the main
    domain only (the trial fan-out below it is where parallelism
    lives). *)

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;  (** estimates dropped by the capacity bound *)
}

val cache_stats : cache -> cache_stats

val fingerprint : config -> Graph.t -> Core.Solution.t -> string
(** Canonical cache key: the config's fields, a digest of the network's
    textual form, and the partitions sorted by smallest member with
    their shapes.  Two solutions listing the same partitions in
    different orders fingerprint identically — and are rewritten in that
    same canonical order, so equal fingerprints really do name equal
    estimates. *)

val estimate_solution :
  ?jobs:int -> cache:cache -> config -> Graph.t -> Core.Solution.t ->
  estimate
(** Synthesise [solution] on the flat network and {!estimate_network}
    the rewritten result, memoized behind {!fingerprint}.  The cache
    remembers the digest of the last network it scored (graphs are
    immutable, so a physically equal [g] has the same text), so a memo
    hit renders the partitions and looks up the LRU, and never
    re-renders the netlist; the key is byte-identical to
    [fingerprint config g solution].  Emits a
    [Reliability_scored] journal event per call (with [trials = 0] and
    [cache_hit = true] on a memo hit) and maintains the
    [reliability.cache_hits]/[reliability.cache_misses] counters and the
    [reliability.trials] total.  The empty solution scores the flat
    network itself. *)

val scorer :
  ?jobs:int -> cache:cache -> config -> Graph.t ->
  Core.Solution.t -> float
(** [scorer ~cache config g] is the severity closure the weighted
    searches take: [fun s -> (estimate_solution ~cache config g s).mean].
    Partially applied once per run so every evaluation shares the
    cache. *)

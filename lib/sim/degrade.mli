(** Graceful-degradation analysis: how a network misbehaves under faults.

    A run replays one stimulus script twice over the same network — once
    clean, once under a {!Fault.plan} — and compares the settled
    primary-output values after every step (the same observation
    {!Equiv} uses).  The mismatch pattern classifies the degradation:

    - {!Identical}: every settled observation matches — the faults were
      absorbed (dropped packets on already-quiet links, jitter the
      settling hides, ...).
    - {!Glitch_recovered}: some intermediate observations differ but the
      network is back to agreeing with the clean run by the final step —
      a transient glitch.
    - {!Wrong_value}: the network still settles after every step, but
      the final settled outputs are wrong — e.g. a toggle that missed a
      packet and is now out of phase.
    - {!Diverged}: the faulty run never went quiescent
      ({!Engine.Event_limit_exceeded}) — livelock, an expected outcome
      under duplication storms.

    The classes are ordered from benign to severe; {!severity} exposes
    that order. *)

module Graph = Netlist.Graph

type outcome =
  | Identical
  | Glitch_recovered
  | Wrong_value
  | Diverged

val severity : outcome -> int
(** 0 for {!Identical} up to 3 for {!Diverged}. *)

val score : outcome -> float
(** The degradation score the reliability objective averages: a
    monotone mapping of {!severity} into [[0, 1]] —

    - {!Identical} [-> 0.] (the faults were absorbed);
    - {!Glitch_recovered} [-> 0.25] (transient, self-healed);
    - {!Wrong_value} [-> 0.75] (settled but wrong — much worse than a
      recovered glitch, slightly better than never settling);
    - {!Diverged} [-> 1.] (livelock).

    Monotone in {!severity}: [severity a <= severity b] iff
    [score a <= score b].  The uneven spacing encodes that the
    recoverable/unrecoverable boundary matters more than the
    wrong/diverged one (see doc/reliability.md). *)

val outcome_to_string : outcome -> string
type run = {
  outcome : outcome;
  injected : Fault.stats;  (** faults that actually struck *)
  link_strikes : (Graph.edge * int) list;
      (** per-connection strike counts of the faulty run
          ({!Engine.link_strikes}), sorted by {!Graph.compare_edge} *)
  node_resets : (Netlist.Node_id.t * int) list;
      (** per-block brownout counts of the faulty run
          ({!Engine.node_resets}), sorted by id *)
  packets : int;  (** send attempts in the faulty run *)
  mismatched_steps : int;  (** observations differing from the clean run *)
  steps : int;  (** script length compared *)
  settle_limit : int;
      (** the per-step event budget this classification actually ran
          under (the caller's value, not the default) *)
}

val classify :
  ?settle_limit:int -> faults:Fault.plan -> Graph.t -> Stimulus.script ->
  run
(** Replay [script] clean and under [faults] and classify
    ({!classify_each} of one plan against a fresh {!reference}).  Both
    runs use the engine's default tie order.  [settle_limit] (default
    100_000) bounds each per-step settle of the faulty run; exceeding it
    yields {!Diverged} rather than an exception.  The clean run is
    expected to settle: its {!Engine.Event_limit_exceeded} propagates,
    since a design that livelocks without faults cannot be graded. *)

(** {1 Shared references and the replay}

    A reliability estimate classifies one (network, script) pair under
    dozens of seeded plans.  A {!reference} freezes the clean run's
    settled observations once, with the network's {!Engine.prepared}
    tables and the sorted script; it is immutable, so worker domains
    share it.  {!classify_each} is the one faulty replay — {!classify}
    and the Monte-Carlo estimator ([Reliability.Estimator], the one
    trial driver) run through it: one
    engine per list of plans, {!Engine.restart}ed between them, each
    step's settled outputs compared with the reference's as the step
    settles.  Grading many plans against one clean run is one
    {!reference} and one {!classify_each}.  Each run's strike lists come
    from the engine's strike counters ({!Engine.link_strikes}). *)

type reference
(** One clean run's settled observations, plus the prepared network they
    came from. *)

val reference : Graph.t -> Stimulus.script -> reference
(** Replay [script] faultlessly, in the engine's default tie order, and
    record the per-step settled outputs.  The clean run is expected to
    settle: its {!Engine.Event_limit_exceeded} propagates. *)

val classify_each :
  ?settle_limit:int -> ?telemetry:Telemetry.t -> reference:reference ->
  Fault.plan list -> run list
(** Classify against [reference] under each plan, in list order, on one
    engine: started for the first plan and {!Engine.restart}ed for each
    next one.  Equal, run for run, to classifying each plan on a fresh
    engine — a restart leaves exactly the state a start does — minus
    the per-trial allocation.  The faulty runs reuse the reference's
    prepared network.  [settle_limit] (default 100_000)
    bounds each per-step settle; exceeding it yields {!Diverged} and
    ends that run's replay.  [telemetry] gathers every faulty run into
    the collector ({!Telemetry.add}; the clean reference is never re-run,
    so it records the faulty runs only), timeline included when the
    collector records one. *)

(** Randomized differential co-simulation — Verify's tier 3.

    For partitions outside the reach of exact proof (members with timers,
    too many input pins, or a product state space past the exploration
    budget), equivalence evidence comes from driving the flat network and
    a rewritten network through {!Sim.Engine} with shared random stimulus
    scripts, replayed under a family of engine perturbations (same-time
    event orders and per-connection latency jitter — see
    {!Sim.Equiv.perturbation}).  Scripts on which the {e flat} design is
    itself timing-sensitive are excluded: such designs have no
    well-defined settled behaviour to preserve (physical eBlocks resolve
    those races nondeterministically), so a differential comparison would
    report noise, not merge bugs.

    The same logic is applied per script on the candidate side.  A design
    can carry a race (typically a timer expiry tied with a packet
    delivery) that the flat network's event schedule happens to resolve
    consistently while the rewritten network's different schedule exposes
    it — the flat-side sensitivity sample then passes even though the
    settled behaviour under the race is undefined.  Such scripts are
    still checked for functional equivalence under the baseline engine,
    but the perturbed comparisons are dropped (counted by
    [codegen.cosim.race_limited_scripts]); with a pool-insensitive
    reference and an agreeing baseline, a perturbed divergence could only
    ever restate that candidate-side sensitivity.

    On a mismatch the failing script is {e shrunk} — steps dropped, then
    step times pulled down, to a local minimum that still fails — before
    it is reported, so a counterexample is a short, replayable scenario
    rather than a 40-step random walk. *)

module Graph = Netlist.Graph

type config = {
  scripts : int;  (** random stimulus scripts to try *)
  steps : int;  (** sensor flips per script *)
  spacing : int;  (** max ticks between flips (clamped to >= 1) *)
  seed : int;  (** base seed; script [i] derives its own stream from it *)
  perturbations : int;
      (** engine perturbations replayed per script, drawn from
          {!Sim.Equiv.perturbations} (the baseline engine is always
          additionally checked) *)
}

val default_config : config
(** 3 scripts of 40 flips, spacing 20, 4 perturbations, seed 2005. *)

type failure = {
  seed : int;  (** seed of the script that failed *)
  perturbation : Sim.Equiv.perturbation;
      (** engine configuration under which the divergence showed *)
  script : Sim.Stimulus.script;  (** the shrunk failing script *)
  original_steps : int;  (** length of the script before shrinking *)
  mismatch : Sim.Equiv.mismatch;  (** first diverging settled output *)
}

val pp_failure : Format.formatter -> failure -> unit

type outcome =
  | Agreed of { scripts : int; checks : int }
      (** every usable script agreed on every settled output under every
          perturbation; [scripts] counts usable (not timing-sensitive)
          scripts, [checks] the per-perturbation script comparisons *)
  | Diverged of failure
  | Inconclusive of string
      (** no evidence either way, with the reason (no sensors, or every
          script was timing-sensitive on the flat design) *)

val shrink :
  ?seed:int ->
  still_fails:(Sim.Stimulus.script -> bool) ->
  Sim.Stimulus.script ->
  Sim.Stimulus.script
(** Greedy counterexample minimization: repeatedly drop step chunks
    (largest first), then lower each step's time toward its
    predecessor's, keeping any change under which [still_fails] holds;
    iterates to a fixpoint.  [still_fails] must hold for the input
    script; the empty script is never proposed.  When [seed] names the
    originating script's stream, each fixpoint round is journaled as an
    [Obs.Journal.Cosim_shrink] event. *)

(** {1 The shared flat side}

    Verify checks every partition of a solution against the same flat
    network with the same scripts, so everything on the flat side — the
    scripts, each script's skip verdict (is the flat design
    timing-sensitive on it?) and the flat runs a comparison re-reads —
    depends on the solution, not on the partition.  A {!reference}
    computes each of those once, on first use, and every candidate
    checked against it simulates only itself.

    Per usable script, the flat side costs E+9 distinct runs for a
    network of E connections (baseline, E single-connection slow-downs,
    4 fifo jitters, lifo and 3 shuffles; the pool runs are among them),
    and each candidate costs 5: the baseline and the 4 pool
    perturbations, which both its race check and its comparisons read.
    Without sharing, each candidate paid E+30.  Outcomes, counters and
    journal events are exactly those of checking each candidate alone. *)

type reference
(** The flat side of co-simulation for one network and config.  Built
    lazily and mutable: use one value from one domain at a time. *)

val reference : ?config:config -> Graph.t -> reference
(** The flat side for [g].  Cheap: nothing is simulated until a
    candidate needs it. *)

val run_against : reference:reference -> Graph.t -> outcome
(** [run_against ~reference candidate] differentially co-simulates the
    flat network [reference] was built from and [candidate] (the
    rewritten one) under the reference's config.  Both must expose the
    same sensor and primary-output ids (guaranteed for rewrites produced
    by {!Replace}); raises [Invalid_argument] otherwise.  Deterministic:
    equal inputs and config give an equal outcome, whatever was checked
    against the same reference before. *)

val run : ?config:config -> reference:Graph.t -> Graph.t -> outcome
(** [run ?config ~reference:g candidate] is
    [run_against ~reference:(reference ?config g) candidate]: one
    candidate against a fresh flat side. *)

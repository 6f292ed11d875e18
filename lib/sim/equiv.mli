(** Observational equivalence of two networks by co-simulation.

    Synthesis must not change what a user observes: after every sensor
    change, once both networks are quiescent, every primary output must
    show the same value.  (Transient timing legitimately differs — a
    programmable block collapses several packet hops into one — so only
    settled values are compared, matching the paper's "behaviourally
    correct ... obeys general high-level timing" simulation contract.)

    Both networks must expose the same sensor and primary-output node ids,
    which is guaranteed by the synthesis rewriter (it only touches inner
    nodes). *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type mismatch = {
  at_time : int;
  output : Node_id.t;
  reference : Behavior.Ast.value;
  candidate : Behavior.Ast.value;
}

val pp_mismatch : Format.formatter -> mismatch -> unit

type perturbation = {
  p_label : string;  (** short name for reports, e.g. ["lifo"], ["jitter2"] *)
  tie_order : Engine.tie_order;
  delay_salt : int option;
      (** [None] = unit wire delays; [Some salt] = a deterministic
          pseudo-random per-connection latency in 1..4 keyed on the edge
          endpoints and [salt], so the "same" jitter applies meaningfully
          to two networks with different edge sets *)
}
(** One way of running an engine that a correct, timing-insensitive
    network must not observably depend on: a same-time event ordering
    plus an optional per-connection latency assignment.  The verifier's
    differential co-simulation ({!Codegen.Cosim}) replays every script
    under a family of these. *)

val baseline : perturbation
(** Fifo ordering, unit delays — the default engine configuration. *)

val perturbations : int -> perturbation list
(** The first [n] entries of a fixed pool of useful perturbations
    (alternating tie orders and jitter salts, capped at the pool size of
    8).  Deterministic: equal [n] gives equal lists. *)

type observations = (int * (Node_id.t * Behavior.Ast.value) list) list
(** Settled primary outputs after each script step
    ({!Stimulus.settled_outputs}). *)

val observe :
  ?perturbation:perturbation ->
  Graph.t ->
  Stimulus.script ->
  observations
(** The settled primary-output observations of one network under one
    script with the perturbation applied. *)

val sensitive_under :
  Graph.t -> perturbation list -> Stimulus.script -> bool
(** True when any of the given perturbations changes the network's
    settled observations relative to {!baseline} — the precondition
    check before differential comparison under those perturbations. *)

val check :
  ?perturbation:perturbation ->
  reference:Graph.t ->
  candidate:Graph.t ->
  Stimulus.script ->
  (unit, mismatch) result
(** Run the script against both networks (under the same optional
    perturbation), comparing settled outputs after each step.  Raises
    [Invalid_argument] if the two networks do not have identical sensor
    and primary-output id sets. *)

val check_random :
  reference:Graph.t ->
  candidate:Graph.t ->
  seed:int ->
  steps:int ->
  (unit, mismatch) result
(** {!check} with a random script over the reference's sensors. *)

val race_sensitive : Graph.t -> Stimulus.script -> bool
(** True when the network's settled outputs under the script depend on how
    simultaneous packets are ordered (simulated with {!Engine.Fifo} and
    compared against {!Engine.Lifo} and several {!Engine.Shuffled}
    orders).  Such designs — e.g. a
    latch reached by two same-length paths from one sensor — behave
    nondeterministically on physical eBlocks as well; equivalence of a
    synthesis result is only meaningful for race-free designs. *)

val race_sensitive_random : Graph.t -> seed:int -> steps:int -> bool
(** {!race_sensitive} with a random script (same construction as
    {!check_random}). *)

val timing_sensitive : Graph.t -> Stimulus.script -> bool
(** {!race_sensitive}, plus sensitivity to per-connection packet latency:
    the script is replayed under several pseudo-random edge-delay
    assignments and the settled outputs compared.  This additionally
    catches {e path-length hazards} — e.g. a latch tripped by a transient
    ordering of a signal and its own reset — whose behaviour the merged
    programmable block (which evaluates members in level order with no
    transport delay) legitimately does not reproduce.  Synthesis is
    not behaviour-preserving for timing-sensitive designs, and timing
    insensitivity alone does not make it so: a block that sees two
    inputs change one packet apart (an xor fed twice by one splitter)
    pulses under every ordering and latency, so the design reads as
    insensitive, and a latch outside the partition catches the pulse
    that the merged block, evaluating both inputs at once, never
    emits (doc/verification.md, "Transient pulses").  All library
    designs are timing-insensitive (asserted in the test suite). *)

val timing_sensitive_random : Graph.t -> seed:int -> steps:int -> bool

(** {1 Observers: each distinct run simulated once}

    The sensitivity tests and {!check} above each replay one script
    under several engine configurations, and a verifier asks them about
    the same (network, script) pair many times: the flat design's
    timing-sensitivity sweep alone is E+10 runs for E connections, and
    every perturbed comparison re-reads the baseline and pool runs that
    sweep already produced.  An observer holds one prepared network and
    one script and simulates each distinct engine configuration — a tie
    order plus a delay assignment (unit delays, a salted jitter, or one
    connection slowed) — at most once.

    It keeps the observations of the {!baseline} and of the 8-entry
    perturbation pool, which differential comparison re-reads; a kept
    run that settles exactly as the baseline does shares the baseline's
    list.  The per-connection slow-down runs and the fifo+jitter4 sample
    are compared as they are produced and then dropped, and only the
    {!timing_sensitive} verdict is kept.  Every query runs its
    configurations in the order the one-shot functions above do, so
    results and exceptions are exactly theirs.

    An observer is mutable: use it from one domain at a time. *)

module Observer : sig
  type t

  val create : Engine.prepared -> Stimulus.script -> t

  val sensitive_under : t -> perturbation list -> bool
  (** {!Equiv.sensitive_under} over the observer's network and script. *)

  val timing_sensitive : t -> bool
  (** {!Equiv.timing_sensitive} over the observer's network and script;
      the verdict is cached. *)

  val check :
    ?perturbation:perturbation ->
    reference:t ->
    candidate:t ->
    unit ->
    (unit, mismatch) result
  (** {!Equiv.check} of two observers of the same script.  Raises
      [Invalid_argument] if their scripts differ, or under {!Equiv.check}'s
      conditions. *)
end

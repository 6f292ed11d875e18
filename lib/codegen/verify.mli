(** Verify v2: equivalence evidence for every partition of a solution.

    A merged program must be observationally equivalent to the member
    blocks it replaces.  Depending on the partition, three tiers of
    evidence are available, tried strongest-first:

    {ol
    {- {b Exhaustive proof} — all members combinational (stateless,
       timer-free): every boolean assignment of the external input pins
       is enumerated and the merged program compared against the member
       composition evaluated directly on the subgraph.  A complete
       proof; the pin count is bounded by the block shape, so the
       enumeration is tiny.}
    {- {b Bounded sequential proof} — members stateful but timer-free:
       the product of the merged machine and the composed member
       machines is explored breadth-first over input sequences until the
       reachable product state space closes (or a budget is exhausted).
       Catalogue sequential behaviours are activation-idempotent, so
       input-driven lockstep activation is a faithful model.  On
       closure the verdict is {!Bounded_equivalent}; a divergence yields
       a {e minimal-length} input-sequence counterexample (BFS order).}
    {- {b Differential co-simulation} — members with timers, too many
       input pins, or a product space past the budget: the flat network
       and the partition-rewritten network ({!Replace}) are driven
       through {!Sim.Engine} with shared random stimulus under a family
       of engine perturbations; see {!Cosim}.  Statistical evidence,
       not proof — but every mismatch comes with a shrunk, replayable
       script.}}

    Unlike the previous verifier, nothing is skipped silently: every
    partition gets an explicit {!status}, and {!check_solution} returns
    the full per-partition breakdown. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type counterexample = {
  trail : bool array list;
      (** input-pin assignments applied in order from power-on; the last
          one exposes the divergence.  Tier 1 trails have length 1. *)
  pin : int;  (** diverging output pin of the plan *)
  merged : Behavior.Ast.value;
  composed : Behavior.Ast.value;
}

type failure =
  | Mismatch of counterexample  (** exact, from tier 1 or 2 *)
  | Cosim_mismatch of Cosim.failure  (** sampled, from tier 3 *)

type status =
  | Proven  (** tier 1: all input assignments agree *)
  | Bounded_equivalent of { states : int; depth : int }
      (** tier 2: the reachable product state space closed after
          [states] states, reached by input sequences of length at most
          [depth], with no divergence *)
  | Cosim_passed of { scripts : int; checks : int }
      (** tier 3: every usable random script agreed under every engine
          perturbation *)
  | Failed of failure
  | Skipped of string
      (** no evidence either way — the reason says why (e.g. every
          stimulus script was timing-sensitive on the flat design) *)

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_status : Format.formatter -> status -> unit

type config = {
  max_input_bits : int;
      (** widest pin count enumerated exactly; beyond it, and in any
          case beyond [Sys.int_size - 2] pins (61 on 64-bit platforms,
          the widest whose [2{^n}] assignments an [int] can count),
          tiers 1–2 are skipped in favour of co-simulation *)
  max_states : int;  (** tier-2 product-state budget *)
  max_depth : int;  (** tier-2 input-sequence depth budget *)
  max_transitions : int;  (** tier-2 total transition budget *)
  cosim : Cosim.config;
}

val default_config : config
(** 10 input bits, 4096 states, depth 64, 100k transitions,
    {!Cosim.default_config}. *)

val check_partition :
  ?config:config -> Graph.t -> Node_id.Set.t -> status
(** Verify one partition of [g]: build its plan, pick the strongest
    applicable tier, and return the verdict.  Deterministic.  Raises
    [Plan.Plan_error] on malformed partitions. *)

type report = { results : (Core.Partition.t * status) list }
(** One status per partition, in solution order — no partition is ever
    silently skipped. *)

val check_solution : ?config:config -> Graph.t -> Core.Solution.t -> report
(** {!check_partition} for every partition of the solution, in order.
    The partitions share one {!Cosim.reference}: the flat network's
    scripts, skip verdicts and runs are computed once per solution (and
    not at all when no partition reaches tier 3), so each co-simulated
    partition simulates only its own rewrite.  The report is exactly
    the per-partition {!check_partition} verdicts. *)

val ok : report -> bool
(** No partition {!Failed}.  ({!Skipped} partitions do not fail the
    solution, but they are visible in the report and {!tally}.) *)

type tally = {
  proven : int;
  bounded : int;
  cosim_passed : int;
  failed : int;
  skipped : int;
}

val tally : report -> tally
val summary : report -> string
(** E.g. ["3 proven, 1 bounded, 0 cosim-passed, 0 failed, 0 skipped"]. *)

val pp_report : Format.formatter -> report -> unit

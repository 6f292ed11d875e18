(** Seeded fault injection for the packet network.

    The eBlock platform is "packet-based, globally asynchronous" hardware
    deployed in the physical world: links drop and corrupt packets, and
    blocks brown out.  A {!plan} describes which faults may strike which
    connections and blocks; {!Engine.create}[ ?faults] arms it.  Every
    random decision is drawn from one {!Prng} stream seeded by the plan,
    so a run replays exactly given the same network, stimulus, and plan —
    and an all-zero plan injects nothing and draws nothing, leaving the
    engine's behaviour bit-identical to an uninstrumented run.

    This module holds the plans and the {!stats} algebra only: the
    engine resolves a plan into dense arrays when a run starts, draws
    the faults inline, and counts every strike once ({!Telemetry}).

    See [doc/fault-injection.md] for the fault model and the
    graceful-degradation taxonomy built on top ({!Degrade}). *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(** {1 Fault models} *)

type edge_fault = {
  drop : float;  (** probability a packet on the edge is silently lost *)
  duplicate : float;  (** probability a packet is delivered twice *)
  corrupt : float;
      (** probability the carried value is corrupted in flight: booleans
          flip, integers get one low bit flipped *)
  jitter : int;
      (** each delivery is delayed by a uniform extra [0..jitter] ticks,
          with [jitter] in [0..max_jitter] *)
  dies_at : int option;
      (** permanent link death: packets sent at or after this tick
          vanish *)
}

val max_jitter : int
(** The largest [jitter] a plan may carry: 255 ticks, so a delivery's
    latency stays a small count ({!Telemetry} keeps one cell per tick)
    and [jitter + 1] never overflows the draw.  The fault-family parser
    rejects more, and an engine armed with more raises. *)

val no_edge_fault : edge_fault
(** All probabilities zero, no jitter, never dies. *)

type stuck = {
  port : int;
  value : Behavior.Ast.value;
  from : int;  (** tick from which the output port is stuck *)
}

type node_fault = {
  reset_at : int list;
      (** spurious resets (brownouts): at each tick the block loses its
          variable store and pending timers and its outputs snap back to
          the descriptor's [output_init], announcing the change
          downstream like a power-on *)
  stuck : stuck list;
      (** stuck-at output ports: from [from] on, every value the block
          presents on [port] is overridden with [value] *)
}

val no_node_fault : node_fault

(** {1 Plans} *)

type plan = {
  seed : int;  (** seeds the injection PRNG; equal plans replay exactly *)
  default_edge : edge_fault;  (** applied to every connection *)
  edge_overrides : (Graph.edge * edge_fault) list;
      (** per-connection overrides, replacing [default_edge] entirely *)
  node_faults : (Node_id.t * node_fault) list;
}

val none : plan
(** The empty plan: nothing is ever injected. *)

val is_trivial : plan -> bool
(** True when the plan can never inject a fault; the engine treats such a
    plan exactly like [?faults:None]. *)

val drop_all : ?seed:int -> float -> plan
(** [drop_all p]: every connection drops each packet with probability
    [p]; no other fault class.  Default [seed] 1. *)

val degrade_all :
  ?seed:int -> ?drop:float -> ?duplicate:float -> ?corrupt:float ->
  ?jitter:int -> unit -> plan
(** A plan applying the given models uniformly to every connection
    (each defaults to off). *)

val resets : plan -> (Node_id.t * int) list
(** All (node, tick) spurious resets the engine must schedule, in plan
    order. *)

(** {1 Injection accounting} *)

type stats = {
  drops : int;
  duplicates : int;
  corruptions : int;
  jittered : int;  (** deliveries delayed by a nonzero jitter draw *)
  dead_link_losses : int;
  resets : int;
  stuck_overrides : int;
      (** presentations whose value a stuck-at fault changed *)
}

val zero : stats
(** All counts zero — the identity of {!merge}. *)

val merge : stats -> stats -> stats
(** Field-wise sum, so per-trial injection counts aggregate cleanly
    across Monte-Carlo seeds: [merge] is associative and commutative
    with [zero] as identity, and
    [total (merge a b) = total a + total b]. *)

val counts : stats -> int list
(** The seven counts in field order, [drops] first. *)

val total : stats -> int
(** Sum over every fault class — "how many faults actually struck". *)

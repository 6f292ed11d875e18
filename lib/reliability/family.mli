(** Declarative fault-plan families for reliability estimation.

    A {!Fault.plan} names concrete edges and nodes, so it cannot be
    shared between a flat network and its synthesised counterpart — the
    node sets differ.  A {e family} is the graph-independent description
    the Monte-Carlo estimator sweeps: instantiated per (graph, trial
    seed) it yields a concrete plan for {e that} network, while its
    canonical {!to_string} rendering is what partition fingerprints and
    CLI arguments carry.

    Instantiation is deterministic: equal (family, seed, graph) triples
    yield equal plans. *)

type t =
  | Drop of { rate : float }
      (** every connection drops each packet with probability [rate] *)
  | Chaos of {
      drop : float;
      duplicate : float;
      corrupt : float;
      jitter : int;
    }  (** uniform link soup: all four edge fault classes at once *)
  | Brownout of { rate : float; ticks : int list }
      (** node faults: at each listed tick, every inner block
          independently suffers a spurious reset with probability
          [rate].  This is the family that punishes concentration: one
          reset of a merged programmable block wipes the state of every
          member it absorbed and re-announces all its outputs at once,
          where the flat network would have lost a single block. *)

val name : t -> string
(** ["drop"], ["chaos"], or ["brownout"]. *)

val to_string : t -> string
(** Canonical rendering, e.g. ["drop:0.05"],
    ["chaos:0.02,0.01,0.01,2"], ["brownout:0.3@50,150,250"].
    Stable — partition fingerprints embed it. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} forms (the [--family] CLI syntax).  Rates
    are numbers in [[0, 1]], ticks whole numbers [>= 0], and a chaos
    jitter a whole number in [0..Sim.Fault.max_jitter]. *)

val plan : t -> seed:int -> Netlist.Graph.t -> Sim.Fault.plan
(** Instantiate the family on a network.  All randomness (which blocks
    brown out) is drawn from a PRNG derived from [seed] over the
    network's inner nodes in increasing id order, so the plan is a pure
    function of its three arguments. *)

(** Simulated-annealing partitioner — a metaheuristic yardstick.

    The paper compares PareDown only against exhaustive search and its own
    greedy first attempt.  A natural question for a reader is how a
    generic metaheuristic fares on the same problem; this module answers
    it.  The annealer searches the space of valid solutions directly:
    moves grow, shrink, create, dissolve, and merge partitions, with
    standard Metropolis acceptance on the paper's objective (total inner
    blocks after replacement, cost as tie-break).

    Deterministic for a given seed.  Expect results comparable to
    PareDown at several orders of magnitude more work — which is the
    point: the problem-specific decomposition heuristic gets the same
    quality for ~free (see the ablation table). *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type config = {
  shapes : Shape.t list;
  partition_config : Partition.config;
  iterations : int;
  initial_temperature : float;
  cooling : float;          (** geometric factor per iteration, < 1 *)
  seed : int;
}

val default_config : config
(** 2x2 shape, 20 000 iterations, T0 = 2.0, cooling 0.9995, seed 1. *)

type result = {
  solution : Solution.t;
  moves_accepted : int;
  moves_proposed : int;
}

val run : ?config:config -> ?start:Solution.t -> Graph.t -> result
(** Anneal from [start] (default: the empty solution).  The result always
    passes {!Solution.check}. *)

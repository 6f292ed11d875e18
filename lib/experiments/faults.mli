(** Fault-tolerance experiment: flat vs PareDown-partitioned networks.

    Collapsing inner blocks onto one programmable block removes physical
    hops, and every hop is a fault site — so partitioning should change
    (usually improve) fault exposure, a claim the paper's cost metrics
    cannot see.  For each Table 1 design and drop rate this experiment
    estimates the original network and its synthesised counterpart
    ({!Libs.Reliability.Estimator.estimate_network}) under the
    [drop:rate] family and tallies the {!Sim.Degrade} outcome of every
    trial.

    Both estimates of a point use one estimator config, so the two
    columns face the same stimulus script and the same per-trial plan
    seeds: a difference in tallies is a difference in exposure, not
    luck.  Nothing in a point depends on the other rates or designs, so
    a row reads the same whether its rate runs alone or after others.
    Everything is derived deterministically from [config.seed]. *)

module Estimator = Libs.Reliability.Estimator

type config = {
  seed : int;  (** the estimator's seed: script and trial plans *)
  trials : int;  (** Monte-Carlo trials per (design, drop rate) point *)
  drop_rates : float list;
  steps : int;  (** sensor flips in the stimulus script *)
  spacing : int;
  settle_limit : int;  (** per-step event budget before [Diverged] *)
}

val default_config : config

type row = {
  design : string;
  drop : float;
  flat_edges : int;  (** fault sites in the original network *)
  part_edges : int;  (** fault sites after synthesis *)
  flat : Estimator.estimate;  (** the original network under [drop:rate] *)
  part : Estimator.estimate;
      (** the synthesised network under the same estimator config: the
          same script and the same plan seeds *)
}

val run_network :
  ?config:config -> name:string -> Netlist.Graph.t -> row list
(** One row per drop rate.  Synthesises the partitioned counterpart with
    {!Codegen.Replace.synthesize} under its default configuration. *)

val run_design : ?config:config -> Designs.Design.t -> row list

val run : ?config:config -> unit -> row list
(** Every Table 1 design. *)

val to_table : row list -> string
val to_csv : row list -> string

val summary : row list -> string
(** One line: on how many (design, rate) points the partitioned network
    was at least as fault-tolerant (no smaller identical tally), and the
    mean clean-outcome percentage on each side. *)

(** The network observatory: instrumented Monte-Carlo observation of a
    (possibly synthesized) network under a fault family, and the
    flat-vs-partitioned link-utilization comparison over Table 1.

    This is the driver behind [paredown observe] and
    [run_experiments netobs].  It runs no trial loop of its own: an
    observation is {!Libs.Reliability.Estimator.estimate_network} under
    the same config, with a {!Sim.Telemetry} collector passed as
    [~telemetry] to gather every trial.  The tally, severity and blame
    are the estimate's; the merged collector feeds the reports.
    Everything is byte-identical across [--jobs N] (see
    doc/network-telemetry.md). *)

module Graph = Netlist.Graph
module Estimator = Libs.Reliability.Estimator
module Family = Libs.Reliability.Family

type config = {
  seed : int;  (** roots both the stimulus script and the trial seeds *)
  trials : int;  (** Monte-Carlo replays (must be positive) *)
  family : Family.t option;
      (** fault family instantiated per trial; [None] = one clean
          instrumented replay *)
  steps : int;  (** stimulus script length (sensor flips) *)
  spacing : int;  (** maximum ticks between flips *)
  settle_limit : int;  (** per-step event budget of each replay *)
}

val default_config : config
(** 8 trials of [drop:0.05] over a 20-flip script (spacing 20), seed 7,
    settle limit 20_000. *)

type observation = {
  name : string;
  network : Graph.t;
  family : Family.t option;
  seed : int;
  trials : int;
  telemetry : Sim.Telemetry.t;  (** merged across all trials *)
  identical : int;
  recovered : int;
  wrong : int;
  diverged : int;  (** per-outcome trial counts *)
  severity : float;  (** mean per-trial degradation score *)
  blame : Estimator.blame;  (** components sum (±ε) to [severity] *)
}

val observe_network :
  ?jobs:int -> ?config:config -> name:string -> Graph.t -> observation
(** With a family: {!Estimator.estimate_network} on [jobs] domains,
    gathering every trial into a fresh collector.
    Without one: one clean instrumented replay of the script. *)

val record_timeline : ?config:config -> Graph.t -> Sim.Telemetry.t
(** One extra replay of the first trial's plan, with timeline recording
    on, for {!Sim.Telemetry.write_timeline}: a one-trial estimate, since
    the first plan does not depend on [trials].  When [family] is
    [None], the same one clean instrumented replay that
    {!observe_network} makes.  A livelocking faulty replay is truncated
    at the event budget rather than raised. *)

val report_json : observation -> Obs.Json.t
(** The [paredown-netobs] report with the observation header spliced in
    (family, seed, trials, tally, severity, blame). *)

val write_report : observation -> string -> unit
(** Pretty-printed {!report_json} to a file. *)

(** {1 Flat vs partitioned link utilization} *)

type cmp_row = {
  design : string;
  flat_links : int;
  part_links : int;  (** directed links carrying at least one packet *)
  flat_sends : int;
  part_sends : int;  (** total packets entering links, summed over trials *)
  flat_hot : string;
  flat_hot_sends : int;  (** busiest link and its send count *)
  part_hot : string;
  part_hot_sends : int;
  flat_p99 : int;
  part_p99 : int;  (** worst per-link p99 delivery latency, ticks *)
}

val compare_network :
  ?jobs:int -> ?config:config -> name:string -> Graph.t ->
  cmp_row * observation * observation
(** Observe the network flat, synthesize it
    ({!Codegen.Replace.synthesize}), observe the result under the same
    script and trial seeds, and compare.  Returns the row plus both
    observations (the CLI reuses them for reports). *)

val compare_design :
  ?jobs:int -> ?config:config -> Designs.Design.t ->
  cmp_row * observation * observation

val run : ?jobs:int -> ?config:config -> unit -> cmp_row list
(** {!compare_network} over every Table 1 design. *)

val headers : string list
val to_table : cmp_row list -> string
val to_csv : cmp_row list -> string

val summary : cmp_row list -> string
(** e.g. ["partitioned network sends no more link packets on 13/15
    designs (...)"]. *)

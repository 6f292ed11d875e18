(** Per-node / per-link runtime telemetry for the simulated network:
    event deliveries, fault strikes by kind, queue-depth high-water
    marks, per-link delivery-latency counts and per-node
    settle-iteration counts of the {e synthesized network itself}.

    A collector is the counter block of an engine run ({!Engine.create}
    [?telemetry]): rows indexed by the engine's dense edge and node ids,
    which the engine writes in place — each count once, fault strikes
    included (a fault-armed run without a collector counts its strikes
    on a block of its own, which {!Engine.fault_stats},
    {!Engine.link_strikes} and the [sim.fault.*] metrics read).  There
    are no hooks: this module is the block, its readings, {!add} and
    the reports.  Without a collector or a fault plan every counting
    site in the engine is one branch on a [false] flag, measured below
    1% of a Table 1 sweep ([Experiments.Perf.telemetry_overhead],
    doc/network-telemetry.md).  Collectors {!add} up by exact integer
    array sums, so Monte-Carlo aggregates are byte-identical across
    [--jobs N]. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t = {
  timeline : bool;  (** record one {!timeline_push} per processed event *)
  timeline_cap : int;
  mutable observed : bool;  (** bound by a collector-armed run *)
  mutable edges : Graph.edge array;  (** dense edge -> connection *)
  mutable dsts : int array;  (** dense edge -> dense destination node *)
  mutable ids : Node_id.t array;  (** dense node -> id, ascending *)
  mutable links : int array array;
      (** one row per link counter ([l_*]), indexed by dense edge *)
  mutable nodes : int array array;
      (** one row per node counter ([n_*]), indexed by dense node *)
  mutable latency : int array array;
      (** per edge: cell [d] counts the deliveries scheduled [d] ticks
          after their send ({!count_latency}); grown to the largest
          latency the edge has seen *)
  totals : int array;
      (** the run's totals, one slot each ([k_*]): strikes per fault
          class in {!Fault.counts} order (the link strike rows'
          classes, then [k_resets], then [k_stuck], presentations
          whose value a stuck-at fault changed), then events,
          deliveries, packets sent, activations, settles and settle
          iterations *)
  mutable run_hwm : int;  (** most events queued at once, whole queue *)
  mutable clock : int;  (** largest event time processed *)
  mutable tl : int array;
      (** timeline: (time, event tag, dense edge or node) per entry *)
  mutable tl_len : int;
  mutable tl_dropped : int;
}
(** The engine writes the fields; everything else reads them through
    the functions below.  Every run counts its [totals]; a strike also
    bumps its cell of a strike row ([l_drops] .. [l_dead], [n_resets])
    on every fault-armed run; the rest is counted only on a run armed
    with this collector. *)

val l_sends : int
val l_deliveries : int
val l_drops : int
val l_duplicates : int
val l_corruptions : int
val l_jittered : int
val l_dead : int
(** The link rows: sends, deliveries, then the strike rows [l_drops] to
    [l_dead] in {!Fault.counts} order — drops, duplicates, corruptions,
    jittered deliveries (nonzero jitter draws), dead-link losses. *)

val n_events : int
val n_activations : int
val n_resets : int
val n_pending : int
val n_hwm : int
(** The node rows: events processed, activations, brownout resets,
    events queued now, most events queued at once. *)

val k_resets : int
val k_stuck : int
val k_events : int
val k_deliveries : int
val k_packets : int
val k_activations : int
val k_settles : int
val k_settle_iterations : int
(** The [totals] slots past the link strike classes. *)

val n_totals : int
(** Slots in [totals]. *)

val create : ?timeline:bool -> ?timeline_cap:int -> unit -> t
(** A fresh, unbound collector (every reading zero).  [timeline]
    (default false) additionally records one entry per processed event
    for {!write_timeline}, bounded by [timeline_cap] (default 200_000)
    — entries past the cap are counted in {!timeline_dropped} instead
    of recorded. *)

val bind : t -> edges:Graph.edge array -> dsts:int array ->
  ids:Node_id.t array -> observe:bool -> unit
(** Size the block for a network and zero it — what an engine does when
    a run starts.  [observe] also zeroes the latency cells (keeping
    their length, so a restarted run allocates nothing) and makes the
    readings read the rows. *)

val count_latency : t -> int -> int -> unit
(** [count_latency t ei d] counts one delivery on dense edge [ei]
    scheduled [d >= 0] ticks after its send, growing the edge's cells
    to [d + 1] if they are shorter. *)

val timeline_push : t -> time:int -> tag:int -> int -> unit
(** Record one processed event (the engine's tag: 0 delivery, 1 timer,
    2 sensor, 3 reset; then the dense edge of a delivery or the dense
    node of anything else), or count it dropped past the cap. *)

val injected : t -> Fault.stats
(** The block's [totals] as a {!Fault.stats}. *)

(** {1 Readings} *)

type latency = {
  count : int;  (** deliveries *)
  sum : int;  (** their ticks *)
  mean : float;  (** [sum / count], 0 when empty *)
  min : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}
(** Exact send-to-delivery readings in ticks, all 0 when empty.  A
    quantile [pP] is the nearest rank: with the deliveries in latency
    order, the latency of the one at rank [ceil(P * count / 100)]. *)

type link_stats = {
  sends : int;  (** send attempts (packets entering the link) *)
  deliveries : int;  (** Deliver events consumed at the sink *)
  drops : int;
  duplicates : int;
  corruptions : int;
  jittered : int;
  dead_losses : int;
  latency : latency;
}

type node_stats = {
  events : int;  (** settle iterations spent processing this node *)
  packets_in : int;  (** deliveries consumed *)
  activations : int;  (** behaviour evaluations *)
  resets : int;  (** spurious (brownout) resets *)
  queue_hwm : int;  (** most events simultaneously pending for the node *)
}

val links : t -> (Graph.edge * link_stats) list
(** Links that carried at least one packet, sorted by
    {!Graph.compare_edge}. *)

val nodes : t -> (Node_id.t * node_stats) list
(** Nodes that had at least one event scheduled, sorted by id. *)

val events : t -> int
val settles : t -> int
val queue_hwm : t -> int
(** Most events simultaneously pending across the whole queue. *)

val clock : t -> int
(** Largest simulated time observed. *)

val add : into:t -> t -> unit
(** Add a collector's readings into another over the same network
    (array sums, latency cells included; [max] for high-water marks and
    the clock), binding [into] first if it is unbound.
    [into]'s timeline, if it has one, gains the other's entries up to
    its cap.  Collectors added into a fresh one in any order give
    bit-identical readings.  Raises [Invalid_argument] on collectors
    of different networks. *)

(** {1 Reports} *)

val schema_name : string
(** ["paredown-netobs"]. *)

val schema_version : int

val report_json :
  ?name:string -> ?extra:(string * Obs.Json.t) list -> Graph.t -> t ->
  Obs.Json.t
(** The versioned [paredown-netobs] report over [g], the network the
    collector was armed on.  Covers {e every} node and edge (untouched
    ones read zero) in id / {!Graph.compare_edge} order, so the
    rendering is deterministic and two reports over the same graph are
    positionally comparable.
    [extra] fields are spliced into the top-level object after the
    schema header (the observe CLI adds family/seed/severity/blame). *)

val utilization_table : t -> string
(** Per-link utilization rendered with {!Obs.Metrics.render_table}. *)

val node_table : Graph.t -> t -> string

val write_timeline : Graph.t -> t -> string -> unit
(** Chrome-trace timeline: one lane (thread) per node, named
    ["<id> <label>"], one thread-scoped instant per processed event at
    [ts = simulated tick] (microseconds in the viewer).  Open in
    [chrome://tracing] or Perfetto.  Empty (lanes only) unless the
    collector was created with [~timeline:true]. *)

val timeline_events : t -> int
val timeline_dropped : t -> int
(** Entries discarded once the timeline cap was reached. *)

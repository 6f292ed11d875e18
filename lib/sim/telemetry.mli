(** Per-node / per-link runtime telemetry for the simulated network.

    The rest of the observability stack (metrics, journal, flight
    recorder) watches the {e search tooling}; this module watches the
    {e synthesized network itself}.  A collector armed via
    {!Engine.create}[ ?telemetry] records, per node and per directed
    link: event deliveries, fault strikes by kind (reusing the
    {!Fault.strike} identity of the plan that struck), queue-depth
    high-water marks, per-link delivery-latency {!Obs.Histogram}s, and
    per-node settle-iteration counts.

    Opt-in and zero-cost when off: without a collector every hook site
    in the engine is a single [match ... with None] on an immutable
    field, measured below 1% of a Table 1 sweep (see
    [Experiments.Perf.telemetry_overhead] and doc/network-telemetry.md).

    Collectors from independent trials {!merge} deterministically
    (field-wise integer sums, exact histogram bucket sums), so
    Monte-Carlo aggregates are byte-identical across [--jobs N].
    Readings export as a versioned [paredown-netobs] JSON report,
    rendered utilization tables, and a Chrome-trace timeline with one
    lane per node. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t

val create : ?timeline:bool -> ?timeline_cap:int -> unit -> t
(** A fresh collector.  [timeline] (default false) additionally records
    one entry per processed event for {!write_timeline}, bounded by
    [timeline_cap] (default 200_000) — entries past the cap are counted
    in {!timeline_dropped} instead of recorded. *)

(** {1 Engine hooks}

    Called by {!Engine} when a collector is armed; not intended for
    direct use outside the simulator. *)

type event_kind =
  | Delivered of Graph.edge
  | Timer_fired
  | Sensor_set
  | Reset

val note_scheduled : t -> Node_id.t -> unit
(** An event was enqueued for the node (queue-depth tracking). *)

val note_event : t -> time:int -> Node_id.t -> event_kind -> unit
(** An event was dequeued and processed at the node. *)

val note_activation : t -> Node_id.t -> unit

val note_send : t -> Graph.edge -> strike:Fault.strike -> latencies:int list
  -> unit
(** A packet was sent on the edge; [latencies] are the scheduled
    send-to-delivery delays (in ticks) of each resulting delivery —
    empty when the packet was dropped or lost. *)

val note_settle : t -> unit

(** {1 Readings} *)

type link_stats = {
  sends : int;  (** send attempts (packets entering the link) *)
  deliveries : int;  (** Deliver events consumed at the sink *)
  drops : int;
  duplicates : int;
  corruptions : int;
  jittered : int;
  dead_losses : int;
  latency : Obs.Histogram.summary;  (** send-to-delivery ticks *)
}

type node_stats = {
  events : int;  (** settle iterations spent processing this node *)
  packets_in : int;  (** deliveries consumed *)
  activations : int;  (** behaviour evaluations *)
  resets : int;  (** spurious (brownout) resets *)
  queue_hwm : int;  (** most events simultaneously pending for the node *)
}

val links : t -> (Graph.edge * link_stats) list
(** Touched links, sorted by {!Graph.compare_edge}. *)

val nodes : t -> (Node_id.t * node_stats) list
(** Touched nodes, sorted by id. *)

val events : t -> int
val settles : t -> int
val queue_hwm : t -> int
(** Most events simultaneously pending across the whole queue. *)

val clock : t -> int
(** Largest simulated time observed. *)

val merge : t -> t -> t
(** Field-wise aggregation (sums; [max] for high-water marks and the
    clock; exact histogram bucket sums).  Associative and commutative up
    to bit-identical readings, so per-trial collectors fold into the
    same aggregate regardless of order.  The result has no timeline. *)

(** {1 Reports} *)

val schema_name : string
(** ["paredown-netobs"]. *)

val schema_version : int

val report_json :
  ?name:string -> ?extra:(string * Obs.Json.t) list -> Graph.t -> t ->
  Obs.Json.t
(** The versioned [paredown-netobs] report.  Covers {e every} node and
    edge of the graph (untouched ones read zero) in id /
    {!Graph.compare_edge} order, so the rendering is deterministic and
    two reports over the same graph are positionally comparable.
    [extra] fields are spliced into the top-level object after the
    schema header (the observe CLI adds family/seed/severity/blame). *)

val utilization_table : Graph.t -> t -> string
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

(** Discrete-event simulator for eBlock networks.

    Models the eBlock execution platform of §3.1: blocks communicate with
    packets, "globally asynchronous", change-driven — a block sends a
    packet on an output connection only when the value presented on that
    output changes.  Time is an abstract integer tick; the paper notes the
    blocks "deal with human-scale events rather than fast timing", so only
    the ordering matters, not absolute durations.

    A simulation owns mutable per-block state (variable store, latched
    input and output values, armed timers) plus a time-ordered event
    queue.  Packets take {!wire_delay} ticks to traverse an edge.

    Behaviours run through {!Behavior.Compile}, node and edge lookups
    are dense array indices, and pending events sit in a timing-wheel
    calendar over a flat preallocated store.  test/test_kernel.ml holds
    every observable — traces, counters, fault strikes, PRNG draw order,
    telemetry, error surfaces — byte-identical to a straightforward
    interpreted kernel kept as an oracle in test/sim_oracle.ml. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t

type tie_order =
  | Fifo  (** same-time events run in scheduling order (the default) *)
  | Lifo  (** same-time events run in reverse scheduling order *)
  | Shuffled of int  (** same-time events run in seeded-random order *)

exception
  Event_limit_exceeded of {
    clock : int;  (** simulated time when the limit was hit *)
    queue_depth : int;  (** events still pending *)
    last_node : Node_id.t option;  (** node the last event targeted *)
  }
(** Raised by {!settle} when the event limit is exhausted — almost always
    a self-retriggering network (an oscillator, or a fault plan that
    keeps the network live).  Carries enough context to classify the
    livelock instead of dying: see {!Degrade}. *)

val wire_delay : int
(** Ticks a packet needs to traverse one connection (1). *)

type prepared
(** The immutable, run-independent half of a simulation of one network:
    its topological order, dense node and edge ids, compiled behaviours
    ({!Behavior.Compile}), fanout tables and power-on latch images.
    Never written after {!prepare}, so one value can start any number of
    runs, on any number of domains. *)

val prepare : Graph.t -> prepared
(** Build the run-independent tables of a network.  The graph must be
    acyclic; raises [Graph.Structural_error] otherwise. *)

val prepared_graph : prepared -> Graph.t
(** The network a {!prepared} value was built from. *)

val start :
  ?tie_order:tie_order -> ?edge_delay:(Graph.edge -> int) ->
  ?faults:Fault.plan -> ?telemetry:Telemetry.t -> prepared -> t
(** Initialise a simulation of a prepared network: allocate the
    per-run state (variable stores, latches, timer generations, event
    calendar), then run the one initialisation routine {!restart} runs
    too — latches from the power-on images, then the power-on sweep.
    Latches start from the descriptors' power-on values, then every
    block evaluates once in topological order (physical blocks announce
    their state at power-on), so all outputs are consistent with the
    power-on inputs before any event runs.  The calendar's wheel
    buckets are allocated on first use, so a start costs a few array
    copies per block and no compilation or graph traversal.

    [tie_order] selects how simultaneous events are ordered, and
    [edge_delay] assigns each connection its packet latency (default
    {!wire_delay}; values below 1 are clamped to 1).  It is evaluated
    once per connection when the run starts, so it must be a pure
    function of the edge.  A network whose
    settled outputs depend on either contains a {e race} or a
    {e path-length hazard} (e.g. a latch whose trigger outruns its reset);
    physical eBlocks resolve those nondeterministically, so such
    sensitivity is a property of the design, not of synthesis — see
    {!Equiv.timing_sensitive}.

    [faults] arms a {!Fault.plan}: packets may then be dropped,
    duplicated, corrupted, jittered, or lost to dead links, and blocks
    may spuriously reset or have outputs stuck, all driven by the plan's
    own seeded PRNG so a run replays exactly.  The plan is resolved into
    dense per-edge and per-node arrays when the run starts, so the one
    armed send path does no lookup and allocates nothing; a plan with
    a jitter above {!Fault.max_jitter} raises [Invalid_argument].
    Without [faults] (or with a plan that is {!Fault.is_trivial}) the
    engine behaves — traces, packet counts, event order — exactly as if
    the fault layer did not exist.

    [telemetry] arms a {!Telemetry.t} collector: the run counts every
    send, delivery, event, activation, queue depth and fault strike
    into it in place.  A collector never changes the simulation's
    behaviour, and with neither armed every counting site is one branch
    on a [false] flag. *)

val restart : ?faults:Fault.plan -> t -> unit
(** Put a run back in exactly the state {!start} leaves a run in, with
    the same prepared network, tie order, edge delays and telemetry
    collector, and the given [faults]: latches from the power-on
    images, fresh variable stores and timer generations, an empty
    calendar (dirty wheel buckets and the overflow included), zeroed
    counters, trace, strike counters and collector (which then reads
    the new run; add it elsewhere first to keep the old one), the plan
    resolved afresh (its PRNG reseeded) and a reseeded {!Shuffled} tie
    stream — then the power-on sweep.  [start] allocates a run and then
    runs this same routine, so there is one initialisation path.  The
    earlier run may have finished or been cut off by
    {!Event_limit_exceeded} with events pending; nothing of it survives
    except the capacity of the arrays.  A Monte-Carlo loop restarts one
    engine per trial instead of starting a new one. *)

val create :
  ?tie_order:tie_order -> ?edge_delay:(Graph.edge -> int) ->
  ?faults:Fault.plan -> ?telemetry:Telemetry.t -> Graph.t -> t
(** [create ?tie_order ?edge_delay ?faults ?telemetry g] is
    [start ?tie_order ?edge_delay ?faults ?telemetry (prepare g)].
    Callers that simulate one network many times should {!prepare} it
    once and {!start} each run. *)

val now : t -> int

val set_sensor : t -> Node_id.t -> bool -> unit
(** Schedule the given sensor to present a value at the current time.
    Raises [Invalid_argument] if the node is not a sensor. *)

val set_sensor_at : t -> time:int -> Node_id.t -> bool -> unit
(** Same, at an absolute future time. *)

val step : t -> bool
(** Process the earliest pending event; [false] if none was pending. *)

val run_until : t -> int -> unit
(** Process events up to and including the given time, then set the clock
    to it. *)

val settle : ?limit:int -> t -> unit
(** Run until no events remain ([limit], default 100_000, guards against
    a runaway self-retriggering network; raises {!Event_limit_exceeded}
    when hit). *)

val output_value : t -> Node_id.t -> Behavior.Ast.value
(** Value currently presented to a primary-output block (its input
    latch). *)

val output_values : t -> (Node_id.t * Behavior.Ast.value) list
(** All primary outputs, sorted by id. *)

val port_value : t -> Node_id.t -> int -> Behavior.Ast.value
(** Value latched on an arbitrary node's output port; for inspection. *)

val trace : t -> (int * Node_id.t * Behavior.Ast.value) list
(** Every change observed at a primary output: (time, output node, new
    value), in chronological order. *)

val activation_count : t -> int
(** Total block activations processed so far (a cheap effort metric used
    by tests and benches).  This, {!packet_count}, {!fault_stats} and
    every [sim.*] counter read the run's totals: one slot each of its
    counter block's [totals] ({!Telemetry.t}), which the [sim.*]
    counters receive as deltas whenever control returns to the
    caller. *)

val packet_count : t -> int
(** Total packets sent over connections so far.  Each packet is a serial
    transmission on a physical wire or radio, so this is the network's
    communication-energy proxy — the quantity the paper's synthesis
    reduces alongside block count ("reducing network size and hence
    network cost and power").  Counts send attempts: a packet the fault
    layer drops was still transmitted by its sender. *)

val fault_stats : t -> Fault.stats option
(** Injection counts so far, the strike arrays summed per class; [None]
    when no fault plan was armed. *)

(** {1 Strike counters}

    A fault-armed run counts each strike once, in the rows of its
    counter block ({!Telemetry.t}): per connection the drops,
    duplicates, corruptions, jittered deliveries and dead-link losses
    of its packets, per block its brownout resets, and each class once
    more in [totals].  {!fault_stats}, the readings below, the
    [sim.fault.*] metrics and an armed collector all read them.  The
    two readings below sum to {!Fault.total} minus [stuck_overrides] (a
    stuck-at override strikes a port, not a connection); the
    reliability estimator's blame is built from them. *)

val link_strikes : t -> (Graph.edge * int) list
(** Connections struck at least once so far, with their strike counts,
    sorted by {!Graph.compare_edge}; [[]] without [faults]. *)

val node_resets : t -> (Node_id.t * int) list
(** Blocks reset at least once so far, with their reset counts, sorted
    by id; [[]] without [faults]. *)

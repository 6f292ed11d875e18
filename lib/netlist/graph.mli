(** eBlock networks as directed acyclic graphs.

    "We represent an eBlock system as a directed acyclic graph G = (V, E)
    where V is the set of nodes (blocks) and E the set of edges
    (connections).  Sensor eBlocks are primary inputs, output eBlocks are
    primary outputs" (§4).

    Structure: an edge connects one output {e port} of a source node to one
    input {e port} of a destination node.  An input port accepts at most
    one driver; an output port may fan out to several edges (each such
    connection occupies a pin of its own, matching the paper's per-edge
    input/output accounting — see DESIGN.md §2).

    The type is immutable; building functions return new graphs. *)

type endpoint = {
  node : Node_id.t;
  port : int;
}

type edge = {
  src : endpoint;
  dst : endpoint;
}

val compare_edge : edge -> edge -> int
(** Total order consistent with structural equality: by source
    endpoint, then destination.  An edge is fully identified by its two
    endpoints (an input port accepts one driver), so this is the edge
    identity used by per-connection tables such as fault plans. *)

val pp_edge : Format.formatter -> edge -> unit
(** Prints as ["src.port->dst.port"], e.g. ["2.0->5.1"]. *)

val edge_to_string : edge -> string

type node = {
  id : Node_id.t;
  descriptor : Eblock.Descriptor.t;
  label : string;  (** human-readable instance name, defaults to the id *)
}

type t

exception Structural_error of string
(** Raised by building functions on malformed operations (unknown node,
    port out of range, duplicated driver, duplicate id); and by
    {!topological_order} and {!levels} on cyclic graphs. *)

val empty : t

val add : ?id:Node_id.t -> ?label:string -> t -> Eblock.Descriptor.t
  -> t * Node_id.t
(** Add a node.  Without [?id] the smallest unused positive id is taken. *)

val connect : t -> src:Node_id.t * int -> dst:Node_id.t * int -> t
(** Add an edge from output port [src] to input port [dst].  Rejects
    unknown nodes, out-of-range ports, and a second driver on an input
    port.  Cycles are {e not} rejected here (they are a validation
    concern, see {!validate}); all synthesis algorithms require validated
    acyclic inputs. *)

val remove_node : t -> Node_id.t -> t
(** Remove a node and every edge touching it. *)

val remove_edge : t -> edge -> t

(** {1 Access} *)

val mem : t -> Node_id.t -> bool
val node : t -> Node_id.t -> node
val descriptor : t -> Node_id.t -> Eblock.Descriptor.t
val kind : t -> Node_id.t -> Eblock.Kind.t
val node_ids : t -> Node_id.t list
(** All node ids, in increasing order. *)

val node_count : t -> int
val edges : t -> edge list
val edge_count : t -> int
val fanin : t -> Node_id.t -> edge list
(** Edges entering the node, sorted by destination port. *)

val fanout : t -> Node_id.t -> edge list
(** Edges leaving the node, sorted by source port then destination. *)

val fanin_unordered : t -> Node_id.t -> edge list
val fanout_unordered : t -> Node_id.t -> edge list
(** Same edges as {!fanin}/{!fanout} in unspecified order, without the
    per-call sort — for counting and membership loops where order does
    not matter. *)

val driver : t -> Node_id.t -> int -> endpoint option
(** The endpoint driving a given input port, if connected. *)

val in_degree : t -> Node_id.t -> int
val out_degree : t -> Node_id.t -> int
val preds : t -> Node_id.t -> Node_id.t list
(** Distinct predecessor node ids. *)

val succs : t -> Node_id.t -> Node_id.t list
(** Distinct successor node ids. *)

(** {1 Queries by class} *)

val sensors : t -> Node_id.t list
val primary_outputs : t -> Node_id.t list
val inner_nodes : t -> Node_id.t list
(** Compute, communication and programmable blocks (the paper's "inner
    blocks"). *)

val partitionable_nodes : t -> Node_id.t list
(** Inner nodes eligible for absorption into a programmable block. *)

val inner_count : t -> int
val total_cost : t -> float
(** Sum of node costs — the secondary metric of §4. *)

(** {1 Structure} *)

val validate : t -> (unit, string list) result
(** Full structural check: every input port of every non-sensor node is
    driven; sensors have no fanin; primary outputs have no fanout; the
    graph is acyclic; at least one sensor and one output exist. *)

val is_acyclic : t -> bool

val topological_order : t -> Node_id.t list
(** Sources first.  Raises {!Structural_error} on a cycle. *)

val levels : t -> int Node_id.Map.t
(** The paper's level: "the maximum distance between the block and any
    sensor block" (§3.3), with sensors (and any other fanin-free node) at
    level 0.  Raises {!Structural_error} on a cycle. *)

val level : t -> Node_id.t -> int

val reachable : t -> from:Node_id.Set.t -> Node_id.Set.t
(** Nodes reachable from the given set by following edges forward,
    excluding the starting nodes themselves unless reachable again. *)

val pp : Format.formatter -> t -> unit
(** A short structural summary for debugging. *)

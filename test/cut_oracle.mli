(** Cut metrics for candidate partitions.

    All pin accounting is {e per edge}: every connection crossing the
    partition boundary occupies one pin of the programmable block.  This
    is the counting that reproduces the rank values of the paper's
    Figure 5 (see DESIGN.md §2 for the derivation). *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

val in_edges : Graph.t -> Node_id.Set.t -> Graph.edge list
(** Edges whose source is outside the set and destination inside,
    sorted by {!Graph.compare_edge}. *)

val out_edges : Graph.t -> Node_id.Set.t -> Graph.edge list
(** Edges whose source is inside the set and destination outside,
    sorted by {!Graph.compare_edge}. *)

val inputs_used : Graph.t -> Node_id.Set.t -> int
val outputs_used : Graph.t -> Node_id.Set.t -> int
(** Count-only: [inputs_used g s = List.length (in_edges g s)] (and
    dually) without building or sorting the edge list. *)

val io_used : Graph.t -> Node_id.Set.t -> int
(** [inputs_used + outputs_used] — the paper's "combined indegree and
    outdegree of a candidate partition" — computed in a single pass
    over the set.

    These functions are the {e reference} pin accounting; search inner
    loops use the compiled {!Netlist.Dense} view, which is property-tested to
    agree with them. *)

val inputs_used_nets : Graph.t -> Node_id.Set.t -> int
(** Net-based alternative (distinct external driver ports), kept for the
    ablation benches; {e not} the paper's model. *)

val outputs_used_nets : Graph.t -> Node_id.Set.t -> int
(** Net-based alternative (distinct internal driver ports with an external
    sink). *)

val is_border : Graph.t -> Node_id.Set.t -> Node_id.t -> bool
(** "A block in which every output or every input connects to a block
    outside of the candidate partition" (§4.2).  A member with no fanin
    (resp. no fanout) vacuously satisfies the corresponding clause. *)

val border_blocks : Graph.t -> Node_id.Set.t -> Node_id.t list
(** Members of the set that are border blocks, in increasing id order. *)

val is_convex : Graph.t -> Node_id.Set.t -> bool
(** No directed path leaves the set and re-enters it.  Convexity is what
    makes a partition "replaceable by a programmable block" without
    introducing a loop in the rewritten network. *)

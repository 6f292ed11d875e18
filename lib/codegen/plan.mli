(** Code-generation plan for one partition (§3.3).

    Builds everything needed to replace a partition with a programmable
    block: the level-ordered member list, the pin assignment (one pin per
    crossing connection, matching the partitioning model), and the merged
    behaviour tree. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t = {
  members : Node_id.t list;
      (** partition members in non-decreasing level order (ties by id) —
          the paper's guarantee that "the tool does not evaluate a block's
          tree before any of its input blocks have produced output" *)
  program : Behavior.Ast.program;
      (** the merged syntax tree *)
  input_pins : (Graph.endpoint * Graph.endpoint) array;
      (** pin [j] of the programmable block is driven by the external
          source endpoint (fst) and feeds the member input port (snd) *)
  output_pins : (Graph.endpoint * Graph.endpoint) array;
      (** pin [j] carries the value of the internal source endpoint (fst)
          to the external destination endpoint (snd) *)
  output_init : Behavior.Ast.value array;
      (** power-on value of each output pin (the member's power-on value) *)
}

exception Plan_error of string

val build : Netlist.Dense.t -> Node_id.Set.t -> t
(** Plan the members against a {!Netlist.Dense} view of the network.
    Pins are numbered in {!Graph.compare_edge} order of the crossing
    edges ({!Netlist.Dense.in_edges}, {!Netlist.Dense.out_edges}).
    Raises {!Plan_error} when the set is empty, a member is missing or not
    partitionable, or an in-partition input port is undriven. *)

val level_order : Netlist.Dense.t -> Node_id.Set.t -> Node_id.t list
(** Members sorted by (level, id), levels from {!Netlist.Dense.levels};
    exposed for tests.  Raises [Graph.Structural_error] on a cyclic
    network, as {!Graph.levels} does. *)

val descriptor : ?label:string -> t -> Eblock.Descriptor.t
(** The programmable-block descriptor hosting the merged program. *)

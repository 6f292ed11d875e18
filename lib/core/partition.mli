(** Candidate partitions and their validity (§4's problem statement).

    A partition is a set of inner nodes to be replaced by one programmable
    block.  It is valid when (1) it fits the block's input and output pin
    budget, (2) it is "replaceable by a programmable block that can
    provide equivalent functionality" — every member is a partitionable
    compute block and the set is convex — and (3) it has at least two
    members (replacing a single pre-defined block never pays off because a
    programmable block costs slightly more). *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense

type pin_counting =
  | Per_edge  (** the paper's model: every crossing connection is a pin *)
  | Per_net   (** ablation only: distinct driver ports *)

type config = {
  pin_counting : pin_counting;
  require_convex : bool;
      (** on by default; off reproduces a literal reading of the paper
          that ignores replaceability-induced loops *)
}

val default_config : config

type t = {
  members : Node_id.Set.t;
  shape : Shape.t;  (** the programmable block chosen to host the members *)
}

val make : members:Node_id.Set.t -> shape:Shape.t -> t

type invalidity =
  | Too_few_members of int
  | Not_partitionable of Node_id.t
  | Unknown_node of Node_id.t
  | Too_many_inputs of { used : int; available : int }
  | Too_many_outputs of { used : int; available : int }
  | Not_convex

val pp_invalidity : Format.formatter -> invalidity -> unit

(** {1 Questions about a member set}

    The pin, fit and validity questions take a {!Dense} view of the
    network, which the caller builds once and reuses across its
    queries.  Given a {!Node_id.Set.t}, they raise [Not_found] if a
    member is not a node of the network, except {!check}, which reports
    it as [Unknown_node]. *)

val pins_used : ?config:config -> Dense.t -> Node_id.Set.t -> int * int
(** [(inputs_used, outputs_used)] of a member set under the config's pin
    counting. *)

val fits_shape :
  ?config:config -> Dense.t -> Shape.t -> Node_id.Set.t -> bool
(** Pin and (if configured) convexity constraints only — the "fits in a
    programmable block" test of the PareDown inner loop, which is also
    satisfied by singleton and empty sets. *)

val members_eligible :
  Graph.t -> Node_id.Set.t -> (unit, invalidity) result
(** Every member exists and is a partitionable compute block. *)

val check : ?config:config -> Dense.t -> t -> (unit, invalidity) result
(** Full validity, in this order: eligibility (so unknown ids give
    [Unknown_node]), size, input pins, output pins, convexity.  Never
    raises, on cyclic networks included. *)

val is_valid : ?config:config -> Dense.t -> t -> bool

val pp : Format.formatter -> t -> unit

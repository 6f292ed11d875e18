(** Optimal partitioning by exhaustive search (§4.1).

    The search space is "every combination of n blocks into n programmable
    blocks (a combination need not use every block)", i.e. every
    assignment of each eligible block to {e unassigned} or to one of a set
    of interchangeable bins.  As in the paper, search-tree symmetry over
    empty bins is pruned: a block may only open the single next empty bin.

    Refinements beyond the paper are on by default and all ride on
    [bound_pruning]; turning it off reproduces the paper's raw search,
    with no extra accounting:

    - {e bound pruning}: abandon a branch whose partial total (bins opened
      + blocks left unassigned so far) can no longer beat the incumbent;
    - {e pin cut} (per-edge counting only): abandon a branch in which some
      open bin's {e permanent} pins already fit no shape.  A bin's current
      pin count is not monotone in its membership (absorbing a neighbour
      can free pins), but an edge between a member and a node that can
      never join the bin — a node that is not partitionable, a block left
      pre-defined, or a member of another bin — stays in the cut at every
      leaf below, and at a leaf these edges are the whole cut.  Kept in
      O(degree) per decision and undone on backtrack;
    - {e singleton cut}: abandon a branch with more single-block bins than
      blocks left to assign, since a bin needs two members.

    Both cuts remove only subtrees whose every leaf is invalid, so a
    search that finishes returns exactly the solution of the uncut DFS
    (the first strictly better valid leaf in the same order); only
    [nodes_explored] and [leaves_checked] fall, and the cuts emit no
    journal event.  Under a deadline the same budget covers more of the
    tree, so an expired search's best solution so far can differ.

    Complexity is still exponential; the paper found eleven inner blocks
    already costs a user-noticeable wait and fourteen did not finish in
    four hours.  With the cuts, every library design finishes (Timed
    Passage, 23 inner blocks, in about half a second), as do random
    designs of 20 inner blocks, but most of 30 run past ten seconds.  Use
    [deadline] for graceful time-outs. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type objective =
  | Fewest_blocks
      (** the paper's objective: minimise inner blocks after replacement,
          tie-broken towards more coverage *)
  | Lowest_cost
      (** the future-work objective: minimise the summed cost of the
          remaining inner blocks ({!Solution.total_cost_after}), which
          matters once shapes with different costs are available *)

type config = {
  shapes : Shape.t list;
  partition_config : Partition.config;
  bound_pruning : bool;
  objective : objective;
}

val default_config : config
(** 2x2 shape, per-edge pins, convexity, bound pruning (with the
    feasibility cuts), [Fewest_blocks]. *)

type outcome =
  | Optimal
  | Timed_out  (** best solution found before the deadline *)

type result = {
  solution : Solution.t;
  outcome : outcome;
  nodes_explored : int;  (** search-tree nodes visited *)
  leaves_checked : int;  (** complete assignments whose validity was tested *)
}

val run : ?config:config -> ?deadline_s:float -> Graph.t -> result
(** [deadline_s] is an elapsed-seconds budget, measured with the shared
    monotonic clock ({!Obs.Clock}) like every other duration in the
    tool chain.  The returned solution always passes
    {!Solution.check}. *)

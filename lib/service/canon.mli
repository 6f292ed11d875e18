(** Canonical network fingerprints for the solution cache.

    The batch server keys cached partitionings by a {e canonical} form
    of the request network: a deterministic node ordering under which
    two isomorphic networks — same block classes, behaviours, arities,
    costs and wiring, whatever their node ids and labels — render to the
    same string and hence the same digest.  A resubmitted design hits
    the cache even after a round-trip through an editor that renumbered
    every node.

    The ordering is found by colour refinement (1-dimensional
    Weisfeiler–Leman over typed, port-labelled edges) plus
    individualization on ties, under a global work budget.  Refinement
    runs over flat int arrays: each neighbour tuple packs into one int
    and each round dense-ranks per-node sorted int segments.  The
    individualization search prunes with the automorphisms it
    discovers (two leaves rendering equal give one): a member of the
    split class whose orbit already holds an explored member is
    skipped, which provably leaves the chosen order unchanged.  Every
    Table 1 design and every design of the 1024-design serve benchmark
    corpus canonises exactly.

    When the budget runs out, or a network has more than 512 nodes, the
    module falls back to id-order.  The fallback is {e sound}: the
    digest is always the hash of the rendered form, and equal rendered
    forms exhibit an isomorphism position-by-position regardless of how
    the order was chosen.  A fallback can only miss a relabel hit, never
    corrupt one. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t

val of_graph : Graph.t -> t
(** Canonise a network.  Deterministic: a pure function of the graph's
    structure (and, in the fallback case, its id order). *)

val digest : t -> string
(** Hex digest of the canonical rendering — the cache key for
    label-insensitive operations.  Equal digests (modulo hash collision)
    certify isomorphism via {!id_of}/{!index_of}. *)

val size : t -> int
(** Node count. *)

val exact : t -> bool
(** [false] when the refinement budget was exhausted and the id-order
    fallback was used (so isomorphic relabellings may miss). *)

val index_of : t -> Node_id.t -> int
(** Canonical index of a node.  Raises [Not_found] on unknown ids. *)

val id_of : t -> int -> Node_id.t
(** Node id at a canonical index. *)

val labels_digest : Graph.t -> string
(** Digest of the network's exact textual form, ids and labels
    included — the cache key for label-{e sensitive} operations
    (reliability scoring draws fault plans from node ids, so a relabel
    legitimately changes the answer). *)

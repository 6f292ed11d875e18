(** Compiled view of a {!Graph}: the library's one cut model.

    Every pin and convexity question about a candidate partition is
    answered here, by the search inner loops (PareDown, the exhaustive
    search) and by the one-shot checks alike ([Core.Partition],
    [Codegen.Plan]).  [Dense.of_graph] compiles the graph once: node
    ids are compacted to [0 .. length-1] (in increasing id order),
    fanin/fanout become flat int arrays and member sets become [Bytes]
    bitsets, so every query is a tight loop over ints.

    The semantics are pinned by the set-based reference in
    [test/cut_oracle.ml]: for every graph, member set and node, each
    function here returns exactly what its oracle counterpart returns
    on the corresponding {!Node_id.Set.t} (property-tested in
    [test/test_dense.ml], on cyclic graphs too).  A view holds small
    mutable scratch buffers, so a single [t] must not be queried from
    several domains at once; build one view per domain (they are
    cheap). *)

type t
(** The compiled view.  Valid as long as the source graph is not
    rebuilt; graphs are immutable, so any structural change produces a
    new graph that needs a new view. *)

type set = Bytes.t
(** A member bitset over compact indices; bit [i] is node
    [node_id t i].  Mutable — the search algorithms flip bits in place
    instead of rebuilding functional sets. *)

val of_graph : Graph.t -> t
(** Compile a view.  O((nodes + edges) · log nodes): one map lookup
    per node and one binary search per edge end; any graph, cyclic or
    not. *)

val graph : t -> Graph.t
(** The graph the view was compiled from. *)

val length : t -> int
(** Number of nodes (all nodes, not just inner ones). *)

val index : t -> Node_id.t -> int
(** Compact index of a node id.  Raises [Not_found] for unknown ids. *)

val node_id : t -> int -> Node_id.t
(** Inverse of {!index}. *)

(** {1 Adjacency} *)

val in_degree : t -> int -> int
(** Fanin edges of node [i], parallel ones each counted. *)

val out_degree : t -> int -> int
(** Fanout edges of node [i], parallel ones each counted. *)

val iter_fanin : t -> int -> (int -> unit) -> unit
(** [iter_fanin t i f] calls [f] on the source of each fanin edge of
    [i], once per edge, in no particular order. *)

val iter_fanout : t -> int -> (int -> unit) -> unit
(** [iter_fanout t i f] calls [f] on the sink of each fanout edge of
    [i], once per edge, in no particular order. *)

val levels : t -> int array
(** [Graph.levels] over compact indices: node [i]'s level is the
    longest path to it from a fanin-free node.  Raises
    [Graph.Structural_error "graph contains a cycle"] on a cycle, as
    [Graph.levels] does.  O(nodes + edges). *)

(** {1 Member bitsets} *)

val empty_set : t -> set

val set_of_ids : t -> Node_id.Set.t -> set
(** Raises [Not_found] if a member is not a node of the graph. *)

val ids_of_set : t -> set -> Node_id.Set.t

val mem : set -> int -> bool
val add : set -> int -> unit
val remove : set -> int -> unit
val cardinal : set -> int

val iter_members : set -> (int -> unit) -> unit
(** Members in increasing index order — the same order as
    [Node_id.Set.iter], which the removal tie-breaking of PareDown
    depends on. *)

(** {1 Pin accounting (per-edge, the paper's model)} *)

val pins_used : t -> set -> int * int
(** [(inputs_used, outputs_used)] of the cut around [set], counted per
    crossing edge, in one pass: every connection crossing the boundary
    occupies one pin of the programmable block, the counting that
    reproduces the ranks of the paper's Figure 5 (DESIGN.md §2). *)

val in_edges : t -> set -> Graph.edge list
(** Edges whose source is outside the set and destination inside,
    sorted by {!Graph.compare_edge} — the programmable block's input
    pin order. *)

val out_edges : t -> set -> Graph.edge list
(** Edges whose source is inside the set and destination outside,
    sorted by {!Graph.compare_edge} — its output pin order. *)

val removal_delta : t -> set -> int -> int * int
(** [removal_delta t set b] with [b] a member: the
    [(d_inputs, d_outputs)] change of the per-edge pin counts if [b]
    were removed.  O(degree b). *)

val addition_delta : t -> set -> int -> int * int
(** [addition_delta t set b] with [b] outside [set]: the change if [b]
    were added.  Exact inverse of {!removal_delta} on the grown set. *)

(** {1 Pin accounting (per-net, ablation only)} *)

val inputs_used_nets : t -> set -> int
(** Distinct external driver ports feeding the set. *)

val outputs_used_nets : t -> set -> int
(** Distinct internal driver ports with an external sink. *)

(** {1 Structure tests} *)

val is_convex : t -> set -> bool
(** No directed path leaves the set and re-enters it — what makes a
    partition replaceable by a programmable block without introducing
    a loop.  A forward walk from the set's external successors that
    stays outside the set: O(edges reached), no setup. *)

(** The PareDown decomposition heuristic (§4.2).

    PareDown "begins by selecting all internal blocks of a design as a
    candidate partition, and then removes blocks from the partition until
    input and output constraints are met".  Each accepted partition's
    members leave the working set and the process repeats until no blocks
    remain.

    The block removed from an invalid candidate is the {e border block}
    with the lowest {e rank} (net change of the candidate's combined
    indegree and outdegree if the block were removed); ties go to the
    greatest indegree, then greatest outdegree, then highest level, then —
    a detail the paper leaves open; this choice reproduces Figure 5 — the
    highest node id.

    A block that cannot fit even alone pares its candidate down to
    nothing.  The paper's literal pseudocode then returns the partitions
    found so far, abandoning any blocks still in the working set; this
    implementation sets that single block aside and continues with the
    remaining blocks, which matches the paper's complexity analysis and
    is never worse. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type tie_break =
  | Greatest_indegree
  | Greatest_outdegree
  | Highest_level
  | Highest_id  (** always appended implicitly to make removal total *)

type config = {
  shapes : Shape.t list;           (** candidate fits if any shape fits *)
  partition_config : Partition.config;
  tie_breaks : tie_break list;
}

val default_config : config
(** The paper's setup: one 2-in/2-out shape, per-edge pins, convexity
    required, ties by indegree/outdegree/level. *)

type stats = {
  outer_iterations : int;  (** candidate partitions started *)
  fit_checks : int;        (** "fits in a programmable block" tests *)
  removals : int;          (** border blocks removed from candidates *)
}

type result = {
  solution : Solution.t;
  stats : stats;
}

val run : ?config:config -> Graph.t -> result
(** Partition the graph's eligible inner blocks.  The graph must be
    acyclic (levels are needed for tie-breaking; a cycle raises
    [Graph.Structural_error]).  Border blocks and their ranks are kept
    incrementally, in a heap, so choosing a victim costs O(degree ·
    log n) under per-edge pin counting (per-net counting, an ablation,
    rescans the candidate per removal).  With a journal
    installed ({!Obs.Journal}) the run records every decision there:
    candidates, fit checks, the border ranks before each removal, the
    removal, accepts and rejections — Figure 5 of the paper, step by
    step. *)

(** {1 Reliability-weighted mode}

    The paper's objective counts blocks only; a deployment that also
    cares how the synthesised system degrades under faults wants to
    trade blocks against expected severity.  [Core] cannot depend on the
    simulator, so the severity of a candidate solution arrives as a
    closure — in practice [Reliability.Estimator.scorer], which memoizes
    Monte-Carlo estimates behind a canonical partition fingerprint. *)

type weighted_config = {
  lambda : float;
      (** exchange rate: how many expected-severity points one saved
          block is worth.  0 restores the paper's objective exactly. *)
  lexicographic : bool;
      (** [true]: minimise (severity, blocks) lexicographically instead
          of the weighted sum — "most reliable first, then smallest";
        [lambda] is ignored *)
  severity : Solution.t -> float;
      (** expected degradation of a candidate solution, in [[0, 1]] *)
}

val weighted_cost :
  weighted:weighted_config -> Graph.t -> Solution.t -> float * float
(** [(blocks, severity)] of a solution under the weighted objective —
    the two axes every caller (refinement loop, Pareto sweep, tests)
    compares on. *)

type weighted_result = {
  base : result;  (** the unmodified paper run (the λ = 0 answer) *)
  solution : Solution.t;  (** after reliability refinement *)
  dissolved : int;  (** partitions the refinement returned to blocks *)
  base_severity : float;  (** severity of [base.solution] *)
  severity : float;  (** severity of [solution] *)
}

val run_weighted :
  ?config:config -> weighted:weighted_config -> Graph.t -> weighted_result
(** {!run}, then greedy dissolve refinement: repeatedly evaluate every
    single-partition dissolution of the current solution and commit the
    one that most improves the weighted (or lexicographic) objective,
    stopping when none does.  Dissolving strictly shrinks the partition
    list, so the loop terminates after at most [programmable_count]
    rounds and the result is deterministic given a deterministic
    [severity].  With [lambda = 0.] (and [lexicographic = false]) no
    dissolution can pay for its block increase, so [solution] is
    [base.solution] unchanged. *)

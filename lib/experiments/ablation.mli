(** Ablation studies of PareDown's design choices (our additions; see
    DESIGN.md §5).

    Each variant re-runs PareDown over the same random design population
    with one ingredient changed, reporting mean total inner blocks and
    mean runtime:

    - tie-break order reduced to pure rank (no indegree/outdegree/level);
    - convexity requirement disabled (a literal reading of the paper);
    - net-based instead of per-edge pin counting;
    - the greedy aggregation baseline of §4.2;
    - multi-shape block libraries (the paper's future-work extension). *)

type variant = {
  label : string;
  mean_total : float;
  mean_prog : float;
  mean_seconds : float;
  invalid_solutions : int;
      (** solutions that fail the default validity check (non-zero only
          for ablations that relax validity, e.g. dropping convexity) *)
}

val run : ?seed:int -> ?count:int -> ?inner:int -> unit -> variant list
(** Defaults: 100 random designs of 20 inner blocks. *)

val to_table : variant list -> string

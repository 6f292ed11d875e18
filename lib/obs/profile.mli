(** Flat profile of a span recording: per-span-name call counts, total
    time, self time (total minus child spans), and the median and 99th
    percentile of the span's durations.  Spans are the one timer of a
    region (no region keeps a latency histogram of its own), so this is
    where a run's per-region latency distributions are read.

    Where {!Chrome} renders every record for a timeline, this folds a
    {!Journal} span recording into the "where did this run spend its
    time" table behind [paredown perf profile], with one span stack per
    lane. *)

type row = {
  name : string;
  calls : int;
  total_ns : float;
  self_ns : float;
  p50_ns : float;  (** nearest-rank quantiles of the span's durations *)
  p99_ns : float;
}

val of_spans : Journal.span list -> row list
(** Sorted by self time, largest first.  An end record with no open
    span on its lane (recording started mid-span) is ignored. *)

val to_table : ?top:int -> row list -> string
(** Top-[top] (default 15) rows with humanised times and a self-time
    percentage column. *)

(** Flat profile of a span recording: per-span-name call counts, total
    time, and self time (total minus child spans).

    Where {!Chrome} renders every record for a timeline, this folds a
    {!Journal} span recording into the "where did this run spend its
    time" table behind [paredown perf profile], with one span stack per
    lane. *)

type row = {
  name : string;
  calls : int;
  total_ns : float;
  self_ns : float;
}

val of_spans : Journal.span list -> row list
(** Sorted by self time, largest first.  An end record with no open
    span on its lane (recording started mid-span) is ignored. *)

val to_table : ?top:int -> row list -> string
(** Top-[top] (default 15) rows with humanised times and a self-time
    percentage column. *)

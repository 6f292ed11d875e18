(** Span-based tracing with pluggable sinks.

    A {e span} is a named, timed, nested region of execution —
    "paredown.run", "sim.settle", "codegen.emit".  Spans are emitted to
    the current {!sink}; with the default {!null} sink the fast path of
    {!with_span} is one physical-equality test and no allocation, so
    instrumentation can stay in the code permanently.

    The tracer is deliberately single-threaded (like the rest of the
    tool chain): nesting is tracked with a plain depth counter. *)

type sink = {
  start_span : name:string -> args:(string * string) list -> ts_ns:int64 -> unit;
  end_span : name:string -> ts_ns:int64 -> unit;
  instant : name:string -> args:(string * string) list -> ts_ns:int64 -> unit;
  flush : unit -> unit;
}

val null : sink
(** Drops everything.  The default. *)

val set_sink : sink -> unit
(** Replace the current sink (flushing the old one). *)

val reset : unit -> unit
(** Flush and restore the {!null} sink. *)

val enabled : unit -> bool
(** [true] iff the current sink is not {!null}. *)

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span.  The span is closed on
    both normal return and exception.  [args] annotate the span (Chrome
    sinks show them in the detail panel); they are ignored — but still
    constructed by the caller, so keep them cheap — when disabled. *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration marker event. *)

val depth : unit -> int
(** Current span nesting depth (0 outside any span); exposed for
    balance tests. *)

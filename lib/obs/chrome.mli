(** Chrome trace-event JSON.

    Renders the JSON-array flavour of the Trace Event Format (duration
    events ["B"]/["E"], thread-scoped instants ["i"] and thread-name
    metadata ["M"]) understood by [chrome://tracing] and
    {{:https://ui.perfetto.dev}Perfetto}.  The one writer behind both
    [--trace] (a {!Journal} span recording, via {!of_spans}) and
    [Sim.Telemetry]'s per-node timeline. *)

type phase = Begin | End | Instant | Thread_name

type event = {
  ph : phase;
  name : string;  (** for [Thread_name]: the lane's label *)
  tid : int;  (** the lane *)
  ts_us : float;  (** microseconds *)
  args : (string * string) list;
}

val to_string : event list -> string
(** The complete JSON array of [events], in order; always a
    well-formed document, whatever the names and args contain. *)

val of_spans : Journal.span list -> event list
(** A span recording as begin/end events: lane [l] becomes tid
    [l + 1] (the main domain keeps tid 1), timestamps count from the
    recording's start. *)

(** The wire protocol of [paredown serve]: length-prefixed JSON frames
    over stdin/stdout.

    Every frame is ["<decimal byte length>\n<json>\n"] — length-prefixed
    because inline netlist sources contain newlines, newline-terminated
    so the stream stays human-greppable.  See doc/service.md for the
    full field reference. *)

module Json = Obs.Json

exception Framing_error of string

val max_frame_bytes : int

val write_frame : out_channel -> string -> unit
val read_frame : in_channel -> string option
(** [None] at end of stream; {!Framing_error} on a malformed header,
    truncated payload, or missing terminator. *)

(** {1 Requests} *)

type op =
  | Partition of { backend : Oneshot.backend; deadline_s : float option }
  | Weighted of {
      lambda : float;
      family : Reliability.Family.t;
      trials : int;
      seed : int;
    }

type request = {
  id : string;
  op : op;
  design : string option;  (** library design name *)
  design_text : string option;  (** inline netlist source; wins *)
  inputs : int;
  outputs : int;  (** programmable-block shape, defaults 2/2 *)
}

type inbound =
  | Request of request
  | Drain  (** the control frame that ends a batch *)
  | Invalid of { id : string; reason : string }
      (** parseable JSON with a bad op, backend, family or field;
          answered with a [rejected] response instead of killing the
          batch *)

val non_negative : float Json.reader
(** The rule for [lambda] and [deadline_s]: a finite number [>= 0].
    The CLI checks its λ and deadline arguments with this reader too,
    so every value it admits is one a served request may carry. *)

val default_trials : int
val default_seed : int

val max_trials : int
(** The largest [trials] a [weighted] request may ask for (10_000). *)

val trial_count : int Json.reader
(** The rule for [trials]: a whole number in [1..max_trials].  The
    CLI checks its [--trials] arguments with this reader too. *)

val pin_count : int Json.reader
(** The rule for [inputs] and [outputs]: a whole number [>= 1].  The
    CLI checks its [--inputs] and [--outputs] arguments with this
    reader too. *)

val parse_request : string -> inbound
(** Every field reads through {!Obs.Json}'s typed readers, and only the
    fields of the request's op are read; unknown fields are ignored.
    An absent field takes its default; a present one of the wrong type
    or range makes the request {!Invalid}, with a reason that names the
    field (doc/service.md has the table):
    - [id], [op], [backend], [family], [design] and [design_text] are
      strings ([design], [design_text] may also be [null]); a request
      whose [id] is not a string is answered under ["?"];
    - [family] is one {!Reliability.Family.of_string} accepts;
    - [lambda] and [deadline_s] are finite numbers [>= 0];
    - [trials] is a whole number in [1..max_trials], [inputs] and
      [outputs] whole numbers [>= 1], and [seed] a whole number a float
      holds exactly ([|seed| <= 2^53]) — never truncated. *)

val render_request : request -> string
val drain_frame : string

(** {1 Responses} *)

type status = Ok_ | Deadline_expired | Rejected | Error_

val status_to_string : status -> string

type cache_disposition = Hit | Miss | Uncached

val cache_to_string : cache_disposition -> string

type response = {
  r_id : string;
  status : status;
  cache : cache_disposition;
  output : string;  (** the one-shot report, or the rejection/error reason *)
  work : (string * Json.t) list;
  elapsed_ns : Json.t;  (** [Null] under PAREDOWN_STABLE_TIMES *)
}

val render_response : response -> string
val parse_response : string -> (response, string) result

(** {1 The batch summary frame} *)

type summary = {
  requests : int;
  hits : int;
  misses : int;
  rejected : int;
  deadline_expired : int;
  errors : int;
  cache_entries : int;
  evictions : int;
}

val render_summary : summary -> string

val is_summary : string -> bool
(** Recognise the summary frame in a response stream. *)

val summary_line : string -> (string, string) result
(** One-line [key=value] rendering of a summary frame, for shell
    pipelines ([paredown submit --decode --summary]). *)

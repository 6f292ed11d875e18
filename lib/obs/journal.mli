(** Search provenance journal and failure flight recorder.

    PareDown and its sibling search engines make thousands of
    accept/reject decisions per synthesis run; metrics count them and
    spans time them, but the {e reasons} — which candidate was
    considered, what the pin/convexity verdict was, why a block was
    evicted, which verification tier judged a partition — are gone the
    moment the run ends.  The journal records those decisions as typed
    events and serialises them as append-only JSONL that the
    [paredown explain] subcommands can query long after the process
    exited (see [doc/provenance.md]).

    Design constraints, in order:

    - {b Zero cost when disabled.}  Emit sites are guarded with
      [if Journal.enabled () then Journal.emit (...)]; the disabled
      path is one ref read and one branch — no allocation, no event
      construction (timed by the [journal] perf group;
      [test_disabled_overhead] in [test/test_journal.ml] asserts that
      guard cost × the events a journaled table1 sweep emits ÷ that
      sweep's time stays ≤ 1%).
    - {b Deterministic across [--jobs].}  Events carry no wall-clock
      timestamps, only logical sequence numbers assigned when they
      reach the journal.  During a {!Parallel.map} fan-out each work
      item's events are captured into a per-domain buffer ({!capture})
      and appended in {e input (seed) order} after the join, so a
      [--jobs N] journal is byte-identical to the sequential one.
    - {b Bounded when armed as a flight recorder.}  A ring of 4096
      events keeps the tail of the decision history; on deadline
      expiry, [Event_limit_exceeded], or a failed verification,
      {!note_failure} dumps a post-mortem JSON bundle (journal tail +
      {!Snapshot.capture} metrics + git rev).

    Threading contract: outside {!capture} scopes only the main domain
    may emit or record spans (the tool chain is single-threaded apart
    from {!Parallel.map}, which captures whenever {!capturing}). *)

(** {1 Events}

    One constructor per decision kind.  Node ids are plain ints here
    ([Obs] sits below [Netlist]); phases name the emitting subsystem. *)

type event =
  | Run_started of { phase : string; inner : int }
      (** a search engine started on a design with [inner] inner blocks *)
  | Candidate_started of { members : int list }
      (** PareDown: a merge candidate (the current working set) opened *)
  | Fit_check of {
      inputs_used : int;
      outputs_used : int;
      pins_ok : bool;
      convex_ok : bool option;  (** [None]: not evaluated (pins already failed, or convexity not required) *)
      fits : bool;
    }  (** PareDown: one fits-in-a-programmable-block test (the §4.2 quantity) *)
  | Ranked of { ranks : (int * int) list }
      (** PareDown: the border blocks of a candidate that does not fit,
          each with its rank (the io delta of removing it), in id order;
          the next [Removed] evicts one of them (Figure 5's ranks) *)
  | Removed of {
      node : int;
      rank : int;
      d_in : int option;  (** [Dense.removal_delta] input-pin component (per-edge counting only) *)
      d_out : int option;
    }  (** PareDown: border block evicted from the candidate *)
  | Accepted of { members : int list; shape : string }
      (** PareDown: candidate accepted onto a programmable block *)
  | Rejected of { node : int; reason : string }
      (** PareDown: block left pre-defined ([left_single]) or set aside
          ([unplaceable]) *)
  | Pruned of { depth : int; bins_open : int; bound : float; best : float }
      (** Exhaustive: subtree cut because [bound] cannot beat [best] *)
  | Exhaustive_best of { total : int; cost : float }
      (** Exhaustive: a new incumbent solution at a valid leaf *)
  | Deadline_expired of { phase : string; budget_s : float; nodes : int }
      (** a search abandoned at its deadline after [nodes] tree nodes *)
  | Verify_tier of { members : int list; tier : string; detail : string }
      (** Verify: the evidence tier that judged a partition *)
  | Cosim_shrink of { seed : int; round : int; steps : int }
      (** Cosim: counterexample length after a delta-debugging round *)
  | Event_limit of { clock : int; queue_depth : int; last_node : int option }
      (** Sim: the engine hit its settle event limit *)
  | Reliability_scored of {
      partitions : int;
      trials : int;
      severity : float;
      cache_hit : bool;
    }
      (** Reliability: a candidate solution's expected degradation was
          consulted by the Monte-Carlo estimator — [trials] is 0 and
          [cache_hit] true when the canonical partition fingerprint
          resolved in the memo cache without re-simulating *)

val phase_of_event : event -> string
(** ["paredown"], ["exhaustive"], ["verify"], ["cosim"], ["sim"],
    ["reliability"], or the [Run_started]/[Deadline_expired] payload
    phase. *)

val kind_of_event : event -> string
(** Stable snake_case tag, e.g. ["fit_check"] — the JSONL [kind] field. *)

val nodes_of_event : event -> int list
(** The block ids a decision explicitly touched ([explain why] uses
    this); empty for per-candidate quantities like fit checks. *)

val pp_event : Format.formatter -> event -> unit
(** One-line human rendering, used by [explain why]/[explain diff]. *)

(** {1 The journal} *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh journal.  [capacity] 0 (default) grows without bound;
    [capacity] > 0 is a ring keeping the newest [capacity] events. *)

val install : ?capacity:int -> unit -> t
(** {!create} and make it the process-wide current journal ({!emit}
    targets it). *)

val uninstall : unit -> t option
(** Clear the current journal (and disarm the flight recorder),
    returning it for inspection. *)

val enabled : unit -> bool
(** [true] iff a journal is installed.  The guard every emit site
    checks; when [false] the site costs one load and one branch. *)

val emit : event -> unit
(** Append to the current capture buffer if one is active on this
    domain, else to the current journal; no-op when disabled. *)

val events : t -> (int * event) list
(** Retained events in emission order with their sequence numbers
    (ring journals: the tail; sequence numbers still count from 0). *)

val total : t -> int
(** Events ever emitted, including any overwritten by the ring. *)

val dropped : t -> int
(** [total - retained]: events the ring overwrote. *)

(** {1 Spans}

    A {e span} is a named, timed, nested region of execution —
    ["paredown.run"], ["sim.settle"], ["codegen.emit_c"].  Spans are
    recorded only between {!start_spans} and {!stop_spans} ([--trace],
    [perf profile]); they ride the same per-domain capture as decision
    events but never enter the journal, its JSONL or a post-mortem
    bundle.  [Obs.Chrome] renders a recording as a trace-event file and
    [Obs.Profile] folds it into a self-time table. *)

type span = {
  lane : int;
      (** 0 for the main domain; [i + 1] for work item [i] of a
          {!Parallel.map} fan-out *)
  name : string;
  args : (string * string) list;  (** [[]] on end records *)
  ts_ns : int64;  (** nanoseconds since {!start_spans} *)
  begins : bool;  (** a begin record, else the matching end *)
}

val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span: a begin record before
    and an end record after, on normal return and on exception alike.
    [args] annotate the begin record.  With no recording active it is
    one load and one branch (the caller still builds [args], so keep
    them cheap). *)

val start_spans : unit -> unit
(** Start a fresh span recording (discarding any active one). *)

val stop_spans : unit -> span list
(** Stop recording and return the records in order: each domain's in
    the order it made them, fan-out items appended in input order at
    their join.  [[]] when no recording is active. *)

(** {1 Parallel capture} *)

type buffer

val capturing : unit -> bool
(** [true] iff a journal is installed or spans are being recorded:
    the condition under which {!Parallel.map} captures its items. *)

val capture :
  lane:int -> (unit -> 'a) ->
  ('a, exn * Printexc.raw_backtrace) result * buffer
(** [capture ~lane f] redirects this domain's {!emit}s and spans into a
    fresh buffer for the duration of [f]; its spans are tagged [lane].
    The buffer comes back whether [f] returned or raised.
    {!Parallel.map} wraps every work item in a capture and then
    {!append}s the buffers in input order on the main domain, up to and
    including the lowest failing item's, which keeps [--jobs N]
    journals byte-identical (failing runs included) and gives each item
    one lane of the span recording.  Fan-outs do not nest. *)

val append : buffer -> unit
(** Append a captured buffer's events to the current journal and its
    spans to the recording (each a no-op when off).  A {!note_failure}
    made inside the capture fires here, after the events that preceded
    it, so the post-mortem bundle holds what the sequential run's
    would. *)

val record : (unit -> 'a) -> 'a * event list
(** [record f] runs [f] with the journal on and returns its result with
    the events it emitted, in order ([partition --explain]).  An
    installed journal still receives them, so a [--journal] file holds
    the whole run; with none installed, one is installed for the call
    only.  Main domain, outside any fan-out. *)

(** {1 Serialisation (JSONL)} *)

val schema_name : string
(** ["paredown-journal"] *)

val schema_version : int

val to_jsonl : t -> string
(** Header line (schema, version, total, dropped) followed by one JSON
    object per retained event.  Deterministic: no timestamps. *)

(** {1 Post-mortem bundles / flight recorder} *)

val bundle_schema_name : string
(** ["paredown-postmortem"] *)

val post_mortem_json : reason:string -> t -> Json.t
(** The bundle: schema, version, [reason], the journal tail, and a full
    {!Snapshot.capture} (metrics registry, git rev, OCaml version). *)

val write_post_mortem : reason:string -> out:string -> t -> unit

val arm_post_mortem : out:string -> unit -> unit
(** Arm the flight recorder: install a ring journal of 4096 events if
    none is installed, and make {!note_failure} dump a bundle to [out].
    Idempotent re-arming replaces the path. *)

val note_failure : string -> unit
(** Called at the failure sites (exhaustive deadline expiry,
    [Sim.Engine.Event_limit_exceeded], a [Failed] verification
    verdict, CLI-level exceptions): if the flight recorder is armed,
    write the post-mortem bundle — first failure wins, later calls are
    no-ops.  Unarmed, this is free.  Inside a {!capture} the failure
    and its position in the buffer are only noted; {!append} writes the
    bundle there, in input order, so the first failure in input order
    wins and the bundle's [reason], [total], [dropped] and [journal] are
    [--jobs]-invariant.  Its [snapshot] reads the live metrics registry
    when the bundle is written (after the join, under a fan-out), so it
    may differ between job counts. *)

val reset : unit -> unit
(** Uninstall, disarm, and forget any previous post-mortem dump (test
    isolation). *)

(** {1 Loading and queries (the [explain] CLI)} *)

type loaded = {
  l_events : (int * event) list;  (** sequence number, event *)
  l_total : int;
  l_dropped : int;
  l_reason : string option;  (** [Some] when loaded from a post-mortem bundle *)
}

val load_string : string -> (loaded, string) result
(** Accepts both formats: a JSONL journal (header + event lines) or a
    post-mortem bundle (one JSON object). *)

val load_file : string -> (loaded, string) result

val summary : loaded -> string
(** [explain summary]: per-phase decision counts by kind, the
    reject-reason histogram, and the fit-check total (which must equal
    the run's [core.paredown.fit_checks] metric). *)

val fit_check_count : loaded -> int
(** Number of [Fit_check] events — the quantity [summary] reports and
    tests compare against the metrics registry. *)

val why : node:int -> loaded -> string
(** [explain why NODE]: every decision whose {!nodes_of_event} contains
    [NODE], in journal order. *)

val diff : loaded -> loaded -> string
(** [explain diff A B]: ["identical (N decisions)"] when the event
    sequences match, else the first divergent sequence number with both
    renderings (and a length note when one journal is a prefix of the
    other). *)

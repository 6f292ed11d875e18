(** The command-line converters and recorder flags both executables
    share.  Each converter checks its value at the boundary, so a bad
    argument is a cmdliner usage error (exit 124, nothing on stdout)
    rather than an exception or a runaway deep in a sweep. *)

val trials_conv : int Cmdliner.Arg.conv
(** A Monte-Carlo trial count, under {!Service.Protocol.trial_count},
    the check the frame decoder applies to [trials]: a whole number in
    [1..Service.Protocol.max_trials]. *)

val pins_conv : int Cmdliner.Arg.conv
(** A programmable block's input or output pin count, under
    {!Service.Protocol.pin_count}, the check the frame decoder applies
    to [inputs] and [outputs]: a whole number [>= 1]. *)

val at_least_conv : int -> int Cmdliner.Arg.conv
(** [at_least_conv lo]: a whole number [>= lo] — a stimulus script
    length or a design count ([lo] 0), a block count or a cache
    capacity ([lo] 1). *)

val family_conv : Reliability.Family.t Cmdliner.Arg.conv
(** A fault-plan family in {!Reliability.Family.of_string} syntax. *)

val rate_conv : float Cmdliner.Arg.conv
(** A per-packet drop probability, under the check
    {!Reliability.Family.of_string} applies to [drop:R]: a number in
    [[0, 1]] (so no NaN or infinity). *)

val non_negative_conv : float Cmdliner.Arg.conv
(** A weight λ or a deadline in seconds, under
    {!Service.Protocol.non_negative}, the check the frame decoder
    applies to [lambda] and [deadline_s]: a finite number [>= 0]. *)

(** {1 Recorders} *)

type artifacts
(** Where a run's decision journal and flight-recorder bundle go. *)

val artifacts_term : artifacts Cmdliner.Term.t
(** [--journal FILE] (an unbounded journal, written when the run ends)
    and [--flight-record FILE] (a ring of the last 4096 events, dumped
    as a post-mortem bundle at the first failure; see
    doc/provenance.md). *)

val with_artifacts : ?trace:string -> artifacts -> (unit -> 'a) -> 'a
(** [with_artifacts ?trace a f] runs [f] with the recorders [a] names
    armed, and with span recording on when [trace] (a Chrome trace
    file) is given.  Every path is checked before [f] runs: one that
    cannot be written exits 2 with ["paredown: cannot write WHAT: ..."]
    on stderr and nothing on stdout.  The trace and the journal are
    written exactly once, when [f] returns or raises or the process
    calls [exit]; the bundle only on a failure, and an exception
    escaping [f] counts as one. *)

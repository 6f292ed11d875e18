(** The command-line converters both executables share.  Each checks
    its value at the boundary, so a bad argument is a cmdliner usage
    error (exit 124, nothing on stdout) rather than an exception or a
    runaway deep in a sweep. *)

val count_conv : min:int -> int Cmdliner.Arg.conv
(** An integer of at least [min]. *)

val trials_conv : int Cmdliner.Arg.conv
(** A Monte-Carlo trial count: at least 1. *)

val steps_conv : int Cmdliner.Arg.conv
(** A stimulus script length: at least 0. *)

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

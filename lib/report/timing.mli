(** Timing helpers for the experiment harness, on the shared monotonic
    clock ({!Obs.Clock}). *)

val time : (unit -> 'a) -> 'a * float
(** Result and elapsed (monotonic) seconds. *)

val time_best_of : repeats:int -> (unit -> 'a) -> 'a * float
(** Re-run the thunk [repeats] times and report the fastest run —
    stabilises sub-millisecond measurements. *)

val format_seconds : float -> string
(** The paper's Table 1/2 time notation: ["<1ms"], ["6.56ms"],
    ["4.79 s"], ["3.67 min"].  Under {!Obs.Clock.stable_times} every
    time renders as ["--"] instead, making experiment output
    byte-stable across runs. *)

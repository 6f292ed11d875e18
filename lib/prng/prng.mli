(** Deterministic splittable pseudo-random numbers (SplitMix64).

    Experiments must be reproducible run-to-run, so every randomised
    component (design generator, stimulus generator, property tests'
    fixtures) threads one of these explicitly instead of using the global
    [Random] state. *)

type t

val create : int -> t
(** A generator seeded with the given value; equal seeds give equal
    streams. *)

val split : t -> t
(** An independent generator derived from (and advancing) [t]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0 .. bound-1].  [bound] must be
    positive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float t bound] draws uniformly from [[0, bound)]. *)

val threshold : float -> int
(** The integer form of a probability for {!chance}: [0] for [p <= 0]. *)

val chance : t -> int -> bool
(** [chance t (threshold p)] is [float t 1.0 < p], draw for draw — the
    same one draw and the same answer — without a float crossing the
    call, so a hot loop that cannot inline it allocates nothing. *)

val pick : t -> 'a list -> 'a
(** Uniform choice; the list must be non-empty. *)

val shuffle : t -> 'a list -> 'a list

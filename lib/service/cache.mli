(** The solution cache behind the batch server: a bounded LRU of JSON
    payloads keyed by canonical request fingerprints, persisted to a
    versioned JSON store.

    Two key families:

    - [partition/...] keys end in {!Canon.digest} — label-{e in}sensitive,
      so an isomorphic relabelling of a cached network hits.  Payloads
      store partition members as {e canonical indices}; a hit translates
      them back through the request graph's own canon, validates the
      reconstructed solution with {!Core.Solution.check}, and re-renders
      the report on the request graph (so ids in the output always
      belong to the request, and an exact resubmission round-trips
      byte-identically).
    - [weighted-shaped/...] keys end in {!Canon.labels_digest} —
      label-sensitive, because fault-plan draws depend on node ids.
      Reports replay verbatim.

    Persistence: [{"schema": "paredown-solution-cache", "version": 1,
    "entries": [{key, value}, ...]}], entries oldest-first, written
    atomically (tmp + rename), flushed every 32 inserts and at batch
    drain.  A missing file starts empty; an unreadable file, or one
    whose header is not exactly this schema at version 1 ([1.9] is not
    1), starts empty with a warning (never a crash).  An entry without
    a string key and a value is skipped, so it costs a miss. *)

module Json = Obs.Json

val default_capacity : int

type t

val create :
  ?capacity:int -> ?path:string -> unit -> t * (int, string) result
(** The second component reports the load: [Ok n] entries restored, or
    [Error reason] when the file existed but could not be used (the
    cache still works, starting empty). *)

type stats = { hits : int; misses : int; entries : int; evictions : int }

val stats : t -> stats

val save : t -> unit
(** Flush to [path] now (no-op without a path). *)

(** {1 Keys} *)

val partition_key :
  backend:Oneshot.backend -> shape:Core.Shape.t ->
  deadline_s:float option -> Canon.t -> string

val weighted_key :
  lambda:float -> family:Reliability.Family.t -> trials:int -> seed:int ->
  shape:Core.Shape.t -> Netlist.Graph.t -> string

(** {1 Payloads} *)

val partition_payload :
  Canon.t -> Core.Solution.t -> (string * Json.t) list -> Json.t

val solution_of_payload : Canon.t -> Json.t -> Core.Solution.t
(** Translate canonical indices back to the given canon's node ids.
    Raises [Invalid_argument] on a payload that does not decode through
    {!Obs.Json}'s readers (e.g. a member index of [2.5]) or names an
    index outside the canon — callers fall back to a miss. *)

val payload_work : Json.t -> (string * Json.t) list

val weighted_payload : report:string -> (string * Json.t) list -> Json.t
val weighted_of_payload : Json.t -> (string * (string * Json.t) list) option

(** {1 Lookup / insert} *)

val find : t -> string -> Json.t option
(** Counting lookup: maintains hit/miss tallies and the
    [service.cache_hits]/[service.cache_misses] metrics, and promotes a
    hit to most-recently-used. *)

val insert : t -> string -> Json.t -> unit
(** Insert, count any eviction on [service.cache_evictions], and flush
    to disk when 32 inserts have accumulated. *)

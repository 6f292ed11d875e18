(** The solution cache behind the batch server: a bounded LRU of JSON
    payloads keyed by canonical request fingerprints, persisted to a
    versioned append-only log.

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

    Persistence: the store at [path] is a log in JSON Lines.  Its
    first line is the header
    [{"schema":"paredown-solution-cache","version":2}]; each insert
    adds a [{"put":KEY,"value":PAYLOAD}] line and each hit a
    [{"touch":KEY}] line.  Records wait in memory and are appended with
    one write at each {!save} (batch drain, and every 32 inserts).  A
    save that would leave more than twice as many records as live
    entries compacts instead: the header and one put per live entry,
    oldest first, written to [path ^ ".tmp"] and renamed over [path] —
    the only whole-store write, and the store stays the one file at
    [path].  Loading replays the records through the LRU, so contents
    and recency match the resident cache.  The loader keeps the longest
    prefix of complete, well-formed lines and warns about what it
    dropped (a torn last record, say).  A version-1 document (the
    indented [{"schema", "version": 1, "entries": [{key, value}, ...]}]
    written before the log) loads as its list of puts.  A missing or
    empty file starts empty; an unreadable file, or one whose header is
    not this schema at version 2 or 1 exactly ([2.9] is not 2), starts
    empty with a warning, never a crash.  A load that dropped,
    converted or rejected anything makes the next save compact.  A
    failed write is logged and retried as a compaction at the next
    save; saving never raises. *)

module Json = Obs.Json

val default_capacity : int

type t

type load = {
  restored : int;  (** entries in the cache after loading *)
  warning : string option;
      (** what the load could not use: the file was unreadable or
          foreign (the cache starts empty), or a record was torn or
          malformed (it and the rest of the file are dropped).  [None]
          when the whole file loaded. *)
}

val create :
  ?capacity:int -> ?path:string -> ?log:(string -> unit) -> unit -> t * load
(** Load the store at [path], if any.  [log] (default silent) receives
    the failures of later saves. *)

type stats = { hits : int; misses : int; entries : int; evictions : int }

val stats : t -> stats
(** [evictions] counts capacity pressure since [create], not the
    evictions the load replayed. *)

val save : t -> unit
(** Append the records since the last save to [path], or compact (no-op
    without a path).  Never raises: a failure goes to [log]. *)

val writable : string -> (unit, string) result
(** Whether a store can be written at this path: [Error] with the
    system's reason when its directory is missing or the path is a
    directory.  Leaves the file system as it found it. *)

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

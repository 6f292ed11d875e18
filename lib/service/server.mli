(** The resident batch server behind [paredown serve].

    One batch: read {!Protocol} request frames from [ic] until a drain
    frame (or end of stream), admit at most [queue] of them, answer the
    cache hits from the {!Cache}, fan the deduplicated misses out over
    [jobs] domains with {!Parallel.map}, write one response frame per
    request {e in request order}, then a summary frame, then append the
    batch's cache records to the store.  The loop repeats until end of stream, so a pipe can
    carry several drained batches through one resident process.

    Determinism: responses are a pure function of (requests, seed) —
    [Parallel.map] orders results and cache inserts happen in miss
    order, so the stream is byte-identical across [--jobs N] once
    [PAREDOWN_STABLE_TIMES] masks the elapsed fields.  A request that
    raises answers [status = "error"]; nothing kills the batch. *)

type config = {
  jobs : int;
  queue : int;  (** accepted requests per batch; the rest are rejected *)
  cache_path : string option;
  capacity : int;
  log : string -> unit;  (** server-side diagnostics (stderr, not frames) *)
}

val default_config : config
(** jobs 1, queue 256, no persistence, capacity
    {!Cache.default_capacity}, silent log. *)

val run : ?config:config -> in_channel -> out_channel -> Protocol.summary
(** Serve until end of stream; returns the cumulative summary (also
    written as the last frame of every batch). *)

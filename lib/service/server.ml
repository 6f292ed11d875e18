module Json = Obs.Json

let m_requests = Obs.Metrics.counter "service.requests"
let m_rejected = Obs.Metrics.counter "service.rejected"
let m_expired = Obs.Metrics.counter "service.deadline_expired"
let m_errors = Obs.Metrics.counter "service.errors"

type config = {
  jobs : int;
  queue : int;  (** accepted requests per batch; the rest are rejected *)
  cache_path : string option;
  capacity : int;
  log : string -> unit;  (** server-side diagnostics (stderr, not frames) *)
}

let default_config =
  { jobs = 1; queue = 256; cache_path = None;
    capacity = Cache.default_capacity; log = ignore }

(* ------------------------------------------------------------------ *)

type job = {
  request : Protocol.request;
  g : Netlist.Graph.t;
  shape : Core.Shape.t;
  key : string;
  canon : Canon.t option;  (** present for label-insensitive ops *)
}

type prepared = Job of job | Answer of Protocol.response

let reject id reason =
  {
    Protocol.r_id = id;
    status = Protocol.Rejected;
    cache = Protocol.Uncached;
    output = reason;
    work = [];
    elapsed_ns = Json.Null;
  }

let error_response id reason =
  { (reject id reason) with Protocol.status = Protocol.Error_ }

let prepare (r : Protocol.request) =
  match
    Oneshot.resolve_network ?design:r.Protocol.design
      ?design_text:r.Protocol.design_text ()
  with
  | exception Oneshot.Unknown_design name ->
    Answer (error_response r.Protocol.id ("unknown design " ^ name))
  | exception Netlist.Textio.Parse_error { line; message } ->
    Answer
      (error_response r.Protocol.id
         (Printf.sprintf "netlist parse error: line %d: %s" line message))
  | exception Invalid_argument e
  | exception Failure e ->
    Answer (error_response r.Protocol.id e)
  | g -> (
    match
      Core.Shape.make ~inputs:r.Protocol.inputs ~outputs:r.Protocol.outputs ()
    with
    | exception Invalid_argument e -> Answer (error_response r.Protocol.id e)
    | shape -> (
      match r.Protocol.op with
      | Protocol.Partition { backend; deadline_s } ->
        let canon = Canon.of_graph g in
        let key = Cache.partition_key ~backend ~shape ~deadline_s canon in
        Job { request = r; g; shape; key; canon = Some canon }
      | Protocol.Weighted { lambda; family; trials; seed } ->
        let key = Cache.weighted_key ~lambda ~family ~trials ~seed ~shape g in
        Job { request = r; g; shape; key; canon = None }))

(* Replay a cached payload against this request's graph.  Any decode or
   validation failure downgrades to a miss — a corrupted store entry
   costs a recompute, never a wrong answer. *)
let replay_payload (j : job) payload =
  match j.request.Protocol.op with
  | Protocol.Partition _ -> (
    match j.canon with
    | None -> None
    | Some canon -> (
      match Cache.solution_of_payload canon payload with
      | exception _ -> None
      | solution -> (
        match Core.Solution.check j.g solution with
        | Error _ -> None
        | Ok () ->
          Some
            (Oneshot.solution_report j.g solution, Cache.payload_work payload))))
  | Protocol.Weighted _ -> Cache.weighted_of_payload payload

type computed =
  | C_done of {
      report : string;
      work : (string * Json.t) list;
      payload : Json.t option;
    }
  | C_expired of { report : string; work : (string * Json.t) list }
  | C_error of string

(* Runs on a worker domain: compute one missed job, time it, and never
   let an exception escape — a failing request answers [error], the
   server and the rest of the batch survive. *)
let compute_job (j : job) =
  let t0 = Obs.Clock.now_ns () in
  let c =
    match j.request.Protocol.op with
    | exception e -> C_error (Printexc.to_string e)
    | op -> (
      let run () =
        match op with
        | Protocol.Partition { backend; deadline_s } ->
          Oneshot.partition ~backend ~shape:j.shape ?deadline_s j.g
        | Protocol.Weighted { lambda; family; trials; seed } ->
          Oneshot.weighted ~lambda ~family ~trials ~seed ~shape:j.shape j.g
      in
      match run () with
      | exception e -> C_error (Printexc.to_string e)
      | Oneshot.Expired { report; work; _ } -> C_expired { report; work }
      | Oneshot.Done { solution; report; work } ->
        let payload =
          match (j.request.Protocol.op, j.canon) with
          | Protocol.Partition _, Some canon ->
            Some (Cache.partition_payload canon solution work)
          | Protocol.Weighted _, _ -> Some (Cache.weighted_payload ~report work)
          | _ -> None
        in
        C_done { report; work; payload })
  in
  (c, Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0))

(* ------------------------------------------------------------------ *)

type lookup =
  | Ready of Protocol.response
  | Hit of { j : job; report : string; work : (string * Json.t) list;
             ns : float }
  | Miss of job

let run ?(config = default_config) ic oc =
  let cache, loaded =
    Cache.create ~capacity:config.capacity ?path:config.cache_path
      ~log:config.log ()
  in
  (match loaded with
   | { Cache.restored = 0; warning = None } -> ()
   | { restored; warning = None } ->
     config.log (Printf.sprintf "cache: restored %d entries" restored)
   | { restored; warning = Some w } ->
     config.log
       (Printf.sprintf "cache: warning: %s; %s" w
          (if restored = 0 then "starting empty"
           else Printf.sprintf "restored %d entries" restored)));
  let stable = Obs.Clock.stable_times () in
  let elapsed_json ns = if stable then Json.Null else Json.Num ns in
  let summary =
    ref
      {
        Protocol.requests = 0; hits = 0; misses = 0; rejected = 0;
        deadline_expired = 0; errors = 0; cache_entries = 0; evictions = 0;
      }
  in
  let bump f = summary := f !summary in
  let count_status (s : Protocol.status) =
    match s with
    | Protocol.Ok_ -> ()
    | Protocol.Deadline_expired ->
      Obs.Metrics.incr m_expired;
      bump (fun c ->
          { c with Protocol.deadline_expired = c.Protocol.deadline_expired + 1 })
    | Protocol.Rejected ->
      Obs.Metrics.incr m_rejected;
      bump (fun c -> { c with Protocol.rejected = c.Protocol.rejected + 1 })
    | Protocol.Error_ ->
      Obs.Metrics.incr m_errors;
      bump (fun c -> { c with Protocol.errors = c.Protocol.errors + 1 })
  in
  let serve_batch () =
    (* 1. Read the whole batch: requests until drain (or EOF). *)
    let eof = ref false in
    let inbound = ref [] in
    (try
       let rec read_loop () =
         match Protocol.read_frame ic with
         | None -> eof := true
         | Some frame -> (
           match Protocol.parse_request frame with
           | Protocol.Drain -> ()
           | i ->
             inbound := i :: !inbound;
             read_loop ())
       in
       read_loop ()
     with Protocol.Framing_error e ->
       eof := true;
       config.log ("framing error: " ^ e));
    let inbound = List.rev !inbound in
    if inbound = [] && !eof then `Eof
    else begin
      (* 2. Admission: the first [queue] requests are accepted, the rest
         rejected with a reason — the bounded batch is the backpressure
         mechanism of a stdin server (doc/service.md). *)
      let accepted = ref 0 in
      let admitted =
        List.map
          (fun i ->
            Obs.Metrics.incr m_requests;
            bump (fun c ->
                { c with Protocol.requests = c.Protocol.requests + 1 });
            match i with
            | Protocol.Invalid { id; reason } -> Answer (reject id reason)
            | Protocol.Drain -> assert false
            | Protocol.Request r ->
              if !accepted >= config.queue then
                Answer
                  (reject r.Protocol.id
                     (Printf.sprintf "queue full (capacity %d)" config.queue))
              else begin
                incr accepted;
                prepare r
              end)
          inbound
      in
      (* 3. Cache lookups on the main domain, timed per request. *)
      let looked_up =
        List.map
          (function
            | Answer r -> Ready r
            | Job j -> (
              let t0 = Obs.Clock.now_ns () in
              match Option.bind (Cache.find cache j.key) (replay_payload j) with
              | Some (report, work) ->
                let ns =
                  Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0)
                in
                Hit { j; report; work; ns }
              | None -> Miss j))
          admitted
      in
      (* 4. Dedupe misses by key (an in-batch resubmission computes once
         and answers as a hit) and fan the unique ones out over the
         worker pool.  [Parallel.map] returns in input order, so the
         cache inserts below happen in miss order whatever the domain
         schedule — the LRU recency stays jobs-invariant. *)
      let miss_seen = Hashtbl.create 16 in
      let miss_jobs =
        List.filter_map
          (function
            | Miss j when not (Hashtbl.mem miss_seen j.key) ->
              Hashtbl.replace miss_seen j.key ();
              Some j
            | _ -> None)
          looked_up
      in
      let computed = Parallel.map ~jobs:config.jobs compute_job miss_jobs in
      let result_of_key = Hashtbl.create 16 in
      List.iter2
        (fun j (c, ns) ->
          Hashtbl.replace result_of_key j.key (c, ns);
          match c with
          | C_done { payload = Some p; _ } -> Cache.insert cache j.key p
          | _ -> ())
        miss_jobs computed;
      (* 5. Answer in request order.  The first request for a key pays
         the miss; later in-batch duplicates replay it as hits. *)
      let served = Hashtbl.create 16 in
      let respond = function
        | Ready r ->
          count_status r.Protocol.status;
          r
        | Hit { j; report; work; ns } ->
          bump (fun c -> { c with Protocol.hits = c.Protocol.hits + 1 });
          {
            Protocol.r_id = j.request.Protocol.id;
            status = Protocol.Ok_;
            cache = Protocol.Hit;
            output = report;
            work;
            elapsed_ns = elapsed_json ns;
          }
        | Miss j -> (
          match Hashtbl.find_opt result_of_key j.key with
          | None ->
            count_status Protocol.Error_;
            error_response j.request.Protocol.id "internal: result lost"
          | Some (C_error reason, ns) ->
            count_status Protocol.Error_;
            {
              (error_response j.request.Protocol.id reason) with
              Protocol.elapsed_ns = elapsed_json ns;
            }
          | Some (C_expired { report; work }, ns) ->
            count_status Protocol.Deadline_expired;
            {
              Protocol.r_id = j.request.Protocol.id;
              status = Protocol.Deadline_expired;
              cache = Protocol.Uncached;
              output = report;
              work;
              elapsed_ns = elapsed_json ns;
            }
          | Some (C_done { report; work; payload }, ns) ->
            let disposition =
              if Hashtbl.mem served j.key then Protocol.Hit
              else begin
                Hashtbl.replace served j.key ();
                Protocol.Miss
              end
            in
            (* An in-batch duplicate may be a *relabelled* isomorph of
               the graph that computed the entry, so its report must be
               replayed through its own canon, not copied verbatim —
               the ids in the answer belong to the request. *)
            let report, work =
              match disposition with
              | Protocol.Miss -> (report, work)
              | _ -> (
                match Option.bind payload (fun p -> replay_payload j p) with
                | Some (r, w) -> (r, w)
                | None -> (report, work))
            in
            (match disposition with
             | Protocol.Miss ->
               bump (fun c ->
                   { c with Protocol.misses = c.Protocol.misses + 1 })
             | _ ->
               bump (fun c -> { c with Protocol.hits = c.Protocol.hits + 1 }));
            {
              Protocol.r_id = j.request.Protocol.id;
              status = Protocol.Ok_;
              cache = disposition;
              output = report;
              work;
              elapsed_ns = elapsed_json ns;
            })
      in
      List.iter
        (fun item ->
          Protocol.write_frame oc (Protocol.render_response (respond item)))
        looked_up;
      let cs = Cache.stats cache in
      bump (fun c ->
          { c with
            Protocol.cache_entries = cs.Cache.entries;
            evictions = cs.Cache.evictions });
      Protocol.write_frame oc (Protocol.render_summary !summary);
      Cache.save cache;
      if !eof then `Eof else `More
    end
  in
  let rec serve () = match serve_batch () with `Eof -> () | `More -> serve () in
  serve ();
  !summary

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let m_estimates =
  Obs.Metrics.counter "reliability.estimates"
    ~doc:"Monte-Carlo estimates actually simulated (cache misses included)"

let m_trials =
  Obs.Metrics.counter "reliability.trials"
    ~doc:"faulty replays simulated across all estimates"

let m_cache_hits =
  Obs.Metrics.counter "reliability.cache_hits"
    ~doc:"solution scores served from the fingerprint memo cache"

let m_cache_misses =
  Obs.Metrics.counter "reliability.cache_misses"
    ~doc:"solution scores that had to simulate"

let m_cache_evictions =
  Obs.Metrics.counter "reliability.cache_evictions"
    ~doc:"memoized estimates dropped by the cache's LRU capacity bound"

type config = {
  seed : int;
  trials : int;
  family : Family.t;
  steps : int;
  spacing : int;
  settle_limit : int;
}

let default_config =
  {
    seed = 1;
    trials = 32;
    family = Family.Brownout { rate = 0.3; ticks = [ 40; 110; 180 ] };
    steps = 12;
    spacing = 30;
    settle_limit = 100_000;
  }

(* --- Blame attribution ----------------------------------------------- *)

type blame = {
  b_links : (Graph.edge * float) list;
  b_nodes : (Node_id.t * float) list;
  b_unattributed : float;
}

let empty_blame = { b_links = []; b_nodes = []; b_unattributed = 0. }

let blame_total b =
  List.fold_left (fun acc (_, x) -> acc +. x) 0. b.b_links
  +. List.fold_left (fun acc (_, x) -> acc +. x) 0. b.b_nodes
  +. b.b_unattributed

(* Each trial contributes score/n to the mean; that mass is split over
   the sites (links and nodes) in proportion to how many faults struck
   each during the trial, as the trial engine's strike counters
   recorded them.  A degraded trial with no recorded strike (possible
   only through fault classes the counters cannot site, e.g. a static
   stuck-at) lands in [b_unattributed], so the three components always
   sum to the mean severity up to float rounding.  Accumulation per
   site happens in trial order and the output lists are sorted by site
   identity, so the vector is deterministic and jobs-invariant. *)
let blame_of_trials (runs : Sim.Degrade.run list) =
  match runs with
  | [] -> empty_blame
  | _ ->
    let n = float_of_int (List.length runs) in
    let links = Hashtbl.create 16 in
    let nodes = Hashtbl.create 16 in
    let unattributed = ref 0. in
    let bump tbl k x =
      match Hashtbl.find_opt tbl k with
      | Some prev -> Hashtbl.replace tbl k (prev +. x)
      | None -> Hashtbl.add tbl k x
    in
    List.iter
      (fun (r : Sim.Degrade.run) ->
        let mass = Sim.Degrade.score r.outcome /. n in
        if mass > 0. then begin
          let total =
            List.fold_left (fun acc (_, k) -> acc + k) 0 r.link_strikes
            + List.fold_left (fun acc (_, k) -> acc + k) 0 r.node_resets
          in
          if total = 0 then unattributed := !unattributed +. mass
          else begin
            let tf = float_of_int total in
            List.iter
              (fun (e, k) -> bump links e (mass *. float_of_int k /. tf))
              r.link_strikes;
            List.iter
              (fun (id, k) -> bump nodes id (mass *. float_of_int k /. tf))
              r.node_resets
          end
        end)
      runs;
    {
      b_links =
        Hashtbl.fold (fun e x acc -> (e, x) :: acc) links []
        |> List.sort (fun (a, _) (b, _) -> Graph.compare_edge a b);
      b_nodes =
        Hashtbl.fold (fun id x acc -> (id, x) :: acc) nodes []
        |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b);
      b_unattributed = !unattributed;
    }

(* Heaviest site first; ties broken by site identity so the rendering
   is deterministic. *)
let blame_rows b =
  let rows =
    List.map
      (fun (e, x) -> (("link " ^ Graph.edge_to_string e), x))
      b.b_links
    @ List.map (fun (id, x) -> ("node " ^ Node_id.to_string id, x)) b.b_nodes
    @ (if b.b_unattributed > 0. then [ ("unattributed", b.b_unattributed) ]
       else [])
  in
  List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) rows

let blame_table b =
  let total = blame_total b in
  let share x = if total <= 0. then "-" else Printf.sprintf "%.0f%%" (100. *. x /. total) in
  let row (site, x) = [ site; Printf.sprintf "%.4f" x; share x ] in
  Obs.Metrics.render_table
    ([ "site"; "severity"; "share" ]
     :: List.map row (blame_rows b)
    @ [ [ "total"; Printf.sprintf "%.4f" total; "" ] ])

let blame_to_json b =
  let num x = Obs.Json.Num x in
  Obs.Json.Obj
    [
      ( "links",
        Obs.Json.Arr
          (List.map
             (fun (e, x) ->
               Obs.Json.Obj
                 [
                   ("link", Obs.Json.Str (Graph.edge_to_string e));
                   ("severity", num x);
                 ])
             b.b_links) );
      ( "nodes",
        Obs.Json.Arr
          (List.map
             (fun (id, x) ->
               Obs.Json.Obj
                 [ ("node", Obs.Json.Num (float_of_int id)); ("severity", num x) ])
             b.b_nodes) );
      ("unattributed", num b.b_unattributed);
      ("total", num (blame_total b));
    ]

type estimate = {
  trials : int;
  identical : int;
  recovered : int;
  wrong : int;
  diverged : int;
  mean : float;
  stderr : float;
  lo : float;
  hi : float;
  injected : Sim.Fault.stats;
  blame : blame;
}

let pp_estimate ppf e =
  Format.fprintf ppf "%.3f ±%.3f (ok %d gl %d wr %d dv %d / %d)" e.mean
    e.stderr e.identical e.recovered e.wrong e.diverged e.trials

let script config g =
  (* A distinct stream from the trial seeds: advancing one must not
     silently reshape the other. *)
  let rng = Prng.create (config.seed * 2 + 1) in
  Sim.Stimulus.random ~rng ~sensors:(Graph.sensors g) ~steps:config.steps
    ~spacing:config.spacing

let clamp01 x = Float.max 0. (Float.min 1. x)

let plans config g =
  let seed_rng = Prng.create config.seed in
  (* explicit recursion: List.init's application order is unspecified,
     and the seed stream must be consumed in trial order *)
  let rec draw n acc =
    if n = 0 then List.rev acc
    else
      draw (n - 1)
        (Family.plan config.family ~seed:(Prng.int seed_rng 0x3FFF_FFFF) g
         :: acc)
  in
  draw config.trials []

let estimate_network ?(jobs = 1) ?telemetry (config : config) g =
  if config.trials <= 0 then invalid_arg "Estimator: trials must be positive";
  Obs.Journal.with_span "reliability.estimate" @@ fun () ->
  let script = script config g in
  let reference = Sim.Degrade.reference g script in
  (* Seeds are pre-drawn and plans pre-built on this domain, so the
     fan-out below receives fully determined work items in input order:
     the estimate cannot depend on [jobs]. *)
  let plans = plans config g in
  (* One engine per contiguous chunk of plans, one chunk per job,
     restarted between trials, each chunk gathering its runs into a
     collector of its own shaped like [telemetry]; Parallel.map returns
     the chunks in input order, so the runs come back in trial order
     and the tally, the blame fold and the merged collector cannot
     depend on [jobs]. *)
  let chunks =
    Parallel.map ~jobs
      (fun plans ->
        let collector =
          Option.map
            (fun (c : Sim.Telemetry.t) ->
              Sim.Telemetry.create ~timeline:c.timeline
                ~timeline_cap:c.timeline_cap ())
            telemetry
        in
        ( Sim.Degrade.classify_each ~settle_limit:config.settle_limit
            ?telemetry:collector ~reference plans,
          collector ))
      (Parallel.chunks (max 1 jobs) plans)
  in
  Option.iter
    (fun into ->
      List.iter (fun (_, c) -> Option.iter (Sim.Telemetry.add ~into) c) chunks)
    telemetry;
  let runs = List.concat_map fst chunks in
  let count o =
    List.length (List.filter (fun r -> r.Sim.Degrade.outcome = o) runs)
  in
  let scores =
    List.map (fun r -> Sim.Degrade.score r.Sim.Degrade.outcome) runs
  in
  let n = float_of_int config.trials in
  let mean = List.fold_left ( +. ) 0. scores /. n in
  let stderr =
    if config.trials < 2 then 0.
    else
      let ss =
        List.fold_left (fun acc s -> acc +. ((s -. mean) ** 2.)) 0. scores
      in
      sqrt (ss /. (n -. 1.) /. n)
  in
  let injected =
    List.fold_left
      (fun acc r -> Sim.Fault.merge acc r.Sim.Degrade.injected)
      Sim.Fault.zero runs
  in
  Obs.Metrics.incr m_estimates;
  Obs.Metrics.add m_trials config.trials;
  {
    trials = config.trials;
    identical = count Sim.Degrade.Identical;
    recovered = count Sim.Degrade.Glitch_recovered;
    wrong = count Sim.Degrade.Wrong_value;
    diverged = count Sim.Degrade.Diverged;
    mean;
    stderr;
    lo = clamp01 (mean -. (1.96 *. stderr));
    hi = clamp01 (mean +. (1.96 *. stderr));
    injected;
    blame = blame_of_trials runs;
  }

(* --- Memoized solution scoring --------------------------------------- *)

type cache = {
  table : estimate Obs.Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable digested : (Graph.t * string) option;
      (* the last network scored and its digest: a sweep scores one
         network many times, and graphs are immutable, so physical
         equality is a sound key *)
}

(* Generous: a λ sweep over Table 1 touches tens of distinct solutions,
   a long weighted search hundreds — but a resident service scoring
   requests forever must not grow without bound. *)
let default_capacity = 4096

let cache ?(capacity = default_capacity) () =
  { table = Obs.Lru.create ~capacity; hits = 0; misses = 0; digested = None }

type cache_stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
}

let cache_stats (c : cache) =
  {
    hits = c.hits;
    misses = c.misses;
    entries = Obs.Lru.length c.table;
    evictions = Obs.Lru.evictions c.table;
  }

let min_member p = Node_id.Set.min_elt p.Core.Partition.members

(* Replace is order-sensitive only in the node ids it mints, but those
   ids decide which blocks a Brownout plan resets — so the same
   partition set must always be rewritten in the same order for equal
   fingerprints to name equal estimates. *)
let canonicalize solution =
  {
    Core.Solution.partitions =
      List.sort
        (fun a b -> Node_id.compare (min_member a) (min_member b))
        solution.Core.Solution.partitions;
  }

let network_digest g =
  Digest.to_hex (Digest.string (Netlist.Textio.to_string g))

(* The cache key of a canonical solution on a network with the given
   digest. *)
let key config ~digest solution =
  let partition p =
    Printf.sprintf "{%s}/%s"
      (String.concat ","
         (List.map Node_id.to_string
            (Node_id.Set.elements p.Core.Partition.members)))
      (Core.Shape.to_string p.Core.Partition.shape)
  in
  String.concat "|"
    [
      Family.to_string config.family;
      string_of_int config.seed;
      string_of_int config.trials;
      string_of_int config.steps;
      string_of_int config.spacing;
      string_of_int config.settle_limit;
      digest;
      String.concat ";" (List.map partition solution.Core.Solution.partitions);
    ]

let fingerprint config g solution =
  key config ~digest:(network_digest g) (canonicalize solution)

let cached_digest cache g =
  match cache.digested with
  | Some (g', digest) when g' == g -> digest
  | Some _ | None ->
    let digest = network_digest g in
    cache.digested <- Some (g, digest);
    digest

let journal_scored ~partitions ~trials ~severity ~cache_hit =
  if Obs.Journal.enabled () then
    Obs.Journal.emit
      (Obs.Journal.Reliability_scored
         { partitions; trials; severity; cache_hit })

let estimate_solution ?(jobs = 1) ~cache config g solution =
  let solution = canonicalize solution in
  let partitions = Core.Solution.programmable_count solution in
  let key = key config ~digest:(cached_digest cache g) solution in
  match Obs.Lru.find cache.table key with
  | Some est ->
    cache.hits <- cache.hits + 1;
    Obs.Metrics.incr m_cache_hits;
    journal_scored ~partitions ~trials:0 ~severity:est.mean ~cache_hit:true;
    est
  | None ->
    let rewritten = (Codegen.Replace.apply g solution).Codegen.Replace.network in
    let est = estimate_network ~jobs config rewritten in
    let evictions_before = Obs.Lru.evictions cache.table in
    Obs.Lru.put cache.table key est;
    if Obs.Lru.evictions cache.table > evictions_before then
      Obs.Metrics.incr m_cache_evictions;
    cache.misses <- cache.misses + 1;
    Obs.Metrics.incr m_cache_misses;
    journal_scored ~partitions ~trials:est.trials ~severity:est.mean
      ~cache_hit:false;
    est

let scorer ?jobs ~cache config g solution =
  (estimate_solution ?jobs ~cache config g solution).mean

(* The network observatory: the zero-cost-when-off contract, strike
   conservation against Fault.stats, exact per-link latency readings,
   blame attribution summing to the measured severity, jobs-invariant
   reports, the timeline and VCD marker renderings, and the
   disabled-path overhead bound (doc/network-telemetry.md). *)

module Graph = Netlist.Graph

let check = Alcotest.check

let two_zone = Designs.Library.two_zone_security.Designs.Design.network

let script g ~seed ~steps =
  Sim.Stimulus.random ~rng:(Prng.create seed) ~sensors:(Graph.sensors g)
    ~steps ~spacing:15

(* --- Off path: arming a collector never changes the simulation -------- *)

let test_armed_run_matches_unarmed () =
  let g = two_zone in
  let script = script g ~seed:21 ~steps:30 in
  let run telemetry =
    let engine =
      match telemetry with
      | None -> Sim.Engine.create ~faults:(Sim.Fault.drop_all ~seed:7 0.05) g
      | Some telemetry ->
        Sim.Engine.create ~faults:(Sim.Fault.drop_all ~seed:7 0.05) ~telemetry
          g
    in
    let outputs = Sim.Stimulus.settled_outputs engine script in
    (outputs, Sim.Engine.packet_count engine, Sim.Engine.fault_stats engine)
  in
  let plain = run None in
  let observed = run (Some (Sim.Telemetry.create ())) in
  (* Same seeded faults, same PRNG draws, same packets: the collector is
     a pure observer. *)
  check Alcotest.bool "settled outputs identical" true (plain = observed)

(* --- Conservation: telemetry totals = engine + fault accounting ------- *)

let test_strikes_match_fault_stats () =
  let g = two_zone in
  let script = script g ~seed:21 ~steps:30 in
  let faults =
    Sim.Fault.degrade_all ~seed:13 ~drop:0.05 ~duplicate:0.05 ~corrupt:0.05
      ~jitter:3 ()
  in
  let telemetry = Sim.Telemetry.create () in
  let engine = Sim.Engine.create ~faults ~telemetry g in
  ignore (Sim.Stimulus.settled_outputs engine script);
  let stats =
    match Sim.Engine.fault_stats engine with
    | Some s -> s
    | None -> Alcotest.fail "fault stats missing"
  in
  let links = Sim.Telemetry.links telemetry in
  let tot f = List.fold_left (fun acc (_, l) -> acc + f l) 0 links in
  check Alcotest.int "drops" stats.Sim.Fault.drops
    (tot (fun l -> l.Sim.Telemetry.drops));
  check Alcotest.int "duplicates" stats.Sim.Fault.duplicates
    (tot (fun l -> l.Sim.Telemetry.duplicates));
  check Alcotest.int "corruptions" stats.Sim.Fault.corruptions
    (tot (fun l -> l.Sim.Telemetry.corruptions));
  check Alcotest.int "jittered" stats.Sim.Fault.jittered
    (tot (fun l -> l.Sim.Telemetry.jittered));
  check Alcotest.int "dead losses" stats.Sim.Fault.dead_link_losses
    (tot (fun l -> l.Sim.Telemetry.dead_losses));
  (* every send either delivers (possibly twice) or is lost *)
  check Alcotest.int "sends = deliveries - duplicates + drops + dead"
    (tot (fun l -> l.Sim.Telemetry.sends))
    (tot (fun l -> l.Sim.Telemetry.deliveries)
    - stats.Sim.Fault.duplicates + stats.Sim.Fault.drops
    + stats.Sim.Fault.dead_link_losses);
  check Alcotest.int "engine packet count = telemetry deliveries"
    (Sim.Engine.packet_count engine)
    (tot (fun l -> l.Sim.Telemetry.deliveries))

(* --- The engine's strike counters = the collector's -------------------- *)

(* One armed run on which every fault class strikes: chaos with jitter
   on every link, brownouts and a stuck-at port on inner blocks, and a
   link that dies mid-run. *)
let test_engine_counters_match_collector () =
  let g = two_zone in
  let inner = Graph.inner_nodes g in
  let faults =
    {
      (Sim.Fault.degrade_all ~seed:13 ~drop:0.05 ~duplicate:0.05 ~corrupt:0.05
         ~jitter:3 ())
      with
      node_faults =
        List.mapi
          (fun i id ->
            ( id,
              if i = 0 then
                { Sim.Fault.no_node_fault with
                  stuck =
                    [ { Sim.Fault.port = 0; value = Bool true; from = 60 } ] }
              else
                { Sim.Fault.no_node_fault with
                  reset_at = [ 40 + (7 * i); 200 + (11 * i) ] } ))
          (List.filteri (fun i _ -> i mod 3 = 0) inner);
      edge_overrides =
        [ ( List.hd (Graph.edges g),
            { Sim.Fault.no_edge_fault with dies_at = Some 100 } ) ];
    }
  in
  let telemetry = Sim.Telemetry.create () in
  let engine = Sim.Engine.create ~faults ~telemetry g in
  ignore (Sim.Stimulus.settled_outputs engine (script g ~seed:21 ~steps:30));
  let stats =
    match Sim.Engine.fault_stats engine with
    | Some s -> s
    | None -> Alcotest.fail "fault stats missing"
  in
  let collector_links =
    List.filter_map
      (fun (e, (l : Sim.Telemetry.link_stats)) ->
        let k =
          l.drops + l.duplicates + l.corruptions + l.jittered + l.dead_losses
        in
        if k > 0 then Some (e, k) else None)
      (Sim.Telemetry.links telemetry)
  in
  let collector_nodes =
    List.filter_map
      (fun (id, (n : Sim.Telemetry.node_stats)) ->
        if n.resets > 0 then Some (id, n.resets) else None)
      (Sim.Telemetry.nodes telemetry)
  in
  let links = Sim.Engine.link_strikes engine in
  let nodes = Sim.Engine.node_resets engine in
  check
    Alcotest.(list (pair string int))
    "per-link strikes"
    (List.map (fun (e, k) -> (Graph.edge_to_string e, k)) collector_links)
    (List.map (fun (e, k) -> (Graph.edge_to_string e, k)) links);
  check Alcotest.(list (pair int int)) "per-node resets" collector_nodes nodes;
  (* every class struck, so the sum below covers them all *)
  List.iter
    (fun (what, n) -> check Alcotest.bool (what ^ " struck") true (n > 0))
    [ ("drops", stats.Sim.Fault.drops);
      ("duplicates", stats.Sim.Fault.duplicates);
      ("corruptions", stats.Sim.Fault.corruptions);
      ("jittered", stats.Sim.Fault.jittered);
      ("dead-link losses", stats.Sim.Fault.dead_link_losses);
      ("resets", stats.Sim.Fault.resets);
      ("stuck overrides", stats.Sim.Fault.stuck_overrides) ];
  let sum l = List.fold_left (fun acc (_, k) -> acc + k) 0 l in
  check Alcotest.int "counters sum to Fault.total minus stuck overrides"
    (Sim.Fault.total stats - stats.Sim.Fault.stuck_overrides)
    (sum links + sum nodes)

(* --- Add: fold order cannot matter ------------------------------------ *)

(* Under jitter a link's latency cells hold several ticks, so the sums
   [add] folds are sums of whole distributions; without it every
   delivery takes the unit wire delay. *)
let test_merge_is_order_independent () =
  let g = two_zone in
  List.iter
    (fun (label, plan, spread) ->
      let collect seed =
        let telemetry = Sim.Telemetry.create () in
        let engine = Sim.Engine.create ~faults:(plan seed) ~telemetry g in
        ignore (Sim.Stimulus.settled_outputs engine (script g ~seed ~steps:20));
        telemetry
      in
      let a = collect 1 and b = collect 2 and c = collect 3 in
      let fold collectors =
        let into = Sim.Telemetry.create () in
        List.iter (Sim.Telemetry.add ~into) collectors;
        into
      in
      let report t = Obs.Json.to_string (Sim.Telemetry.report_json g t) in
      check Alcotest.string
        (label ^ ": added report is fold-order independent")
        (report (fold [ a; b; c ]))
        (report (fold [ c; b; a ]));
      check Alcotest.bool
        (label ^ ": a link's added latencies span several ticks")
        spread
        (List.exists
           (fun (_, (l : Sim.Telemetry.link_stats)) ->
             l.latency.min < l.latency.max)
           (Sim.Telemetry.links (fold [ a; b; c ]))))
    [
      ("drop", (fun seed -> Sim.Fault.drop_all ~seed 0.1), false);
      ( "jitter",
        (fun seed -> Sim.Fault.degrade_all ~seed ~drop:0.1 ~jitter:3 ()),
        true );
    ]

(* --- Latency: exact ticks -------------------------------------------- *)

(* Every quantile a collector reports is a whole tick: the nearest rank
   of the link's latencies, which the oracle keeps one by one. *)
let test_latency_quantiles_exact () =
  let g = two_zone in
  let script = script g ~seed:21 ~steps:30 in
  let faults = Sim.Fault.degrade_all ~seed:13 ~jitter:3 () in
  let telemetry = Sim.Telemetry.create () in
  ignore
    (Sim.Stimulus.settled_outputs (Sim.Engine.create ~faults ~telemetry g)
       script);
  let kept = Sim_oracle.Telemetry.create () in
  ignore
    (Sim_oracle.settled_outputs
       (Sim_oracle.create ~faults ~telemetry:kept g)
       script);
  let links = Sim.Telemetry.links telemetry in
  List.iter
    (fun (e, (l : Sim.Telemetry.link_stats)) ->
      let sorted = Sim_oracle.Telemetry.latencies kept e in
      let rank = Sim_oracle.Telemetry.nearest_rank sorted in
      let name = Graph.edge_to_string e in
      check Alcotest.int (name ^ ": count") (List.length sorted)
        l.latency.count;
      check
        Alcotest.(list int)
        (name ^ ": p50, p90, p99")
        [ rank 50; rank 90; rank 99 ]
        [ l.latency.p50; l.latency.p90; l.latency.p99 ])
    links;
  check Alcotest.bool "some link's p50 and p99 differ" true
    (List.exists
       (fun (_, (l : Sim.Telemetry.link_stats)) ->
         l.latency.p50 <> l.latency.p99)
       links)

(* --- Blame: components sum to the estimate's severity ----------------- *)

let blame_sums_for family =
  let g = Designs.Library.entry_gate_detector.Designs.Design.network in
  let config =
    { Reliability.Estimator.default_config with trials = 24; family }
  in
  let est = Reliability.Estimator.estimate_network config g in
  let b = est.Reliability.Estimator.blame in
  check (Alcotest.float 1e-9)
    (Reliability.Family.to_string family ^ ": blame sums to severity")
    est.Reliability.Estimator.mean
    (Reliability.Estimator.blame_total b);
  List.iter
    (fun (_, v) ->
      check Alcotest.bool "link mass nonnegative" true (v >= 0.))
    b.Reliability.Estimator.b_links;
  List.iter
    (fun (_, v) ->
      check Alcotest.bool "node mass nonnegative" true (v >= 0.))
    b.Reliability.Estimator.b_nodes

let test_blame_sums_to_severity () =
  List.iter blame_sums_for
    [
      Reliability.Family.Drop { rate = 0.15 };
      Reliability.Estimator.default_config.family;
      Reliability.Family.Chaos
        { drop = 0.05; duplicate = 0.05; corrupt = 0.05; jitter = 2 };
    ]

let test_blame_table_renders () =
  let g = Designs.Library.entry_gate_detector.Designs.Design.network in
  let est =
    Reliability.Estimator.estimate_network
      Reliability.Estimator.default_config g
  in
  let table =
    Reliability.Estimator.blame_table est.Reliability.Estimator.blame
  in
  check Alcotest.bool "table has a total row" true
    (Testlib.contains table "total");
  (* default family is a brownout: the mass lands on node resets *)
  check Alcotest.bool "brownout blame names a node" true
    (Testlib.contains table "node ")

(* --- Determinism: --jobs cannot change a report ----------------------- *)

let observe ~jobs =
  Experiments.Netobs.observe_network ~jobs ~name:"Entry Gate Detector"
    Designs.Library.entry_gate_detector.Designs.Design.network

let test_observation_jobs_invariant () =
  let report o =
    Obs.Json.to_string ~indent:2 (Experiments.Netobs.report_json o)
  in
  let r1 = report (observe ~jobs:1) and r2 = report (observe ~jobs:2) in
  check Alcotest.string "paredown-netobs report byte-identical" r1 r2

(* The observatory runs its trials through the estimator: at every job
   count an observation's tally, severity and blame are those of
   estimate_network on the same config, and its collector reads the
   same at both job counts. *)
let test_observation_is_an_estimate () =
  List.iter
    (fun (g, family) ->
      let config =
        { Experiments.Netobs.default_config with
          trials = 12; family = Some family }
      in
      let e =
        Reliability.Estimator.estimate_network
          {
            Reliability.Estimator.seed = config.seed;
            trials = config.trials;
            family;
            steps = config.steps;
            spacing = config.spacing;
            settle_limit = config.settle_limit;
          }
          g
      in
      let label = Reliability.Family.to_string family in
      check Alcotest.bool (label ^ ": some trial degrades") true (e.mean > 0.);
      let reports =
        List.map
          (fun jobs ->
            let o =
              Experiments.Netobs.observe_network ~jobs ~config ~name:label g
            in
            let at what = Printf.sprintf "%s, jobs %d: %s" label jobs what in
            check
              (Alcotest.list Alcotest.int)
              (at "tally")
              [ e.identical; e.recovered; e.wrong; e.diverged ]
              [ o.identical; o.recovered; o.wrong; o.diverged ];
            check (Alcotest.float 0.) (at "severity") e.mean o.severity;
            check Alcotest.bool (at "blame") true (e.blame = o.blame);
            Obs.Json.to_string (Sim.Telemetry.report_json g o.telemetry))
          [ 1; 2 ]
      in
      check Alcotest.string (label ^ ": collector jobs-invariant")
        (List.nth reports 0) (List.nth reports 1))
    [
      ( Designs.Library.podium_timer_3.Designs.Design.network,
        Reliability.Estimator.default_config.family );
      ( two_zone,
        Reliability.Family.Chaos
          { drop = 0.02; duplicate = 0.01; corrupt = 0.01; jitter = 2 } );
    ]

let test_report_covers_whole_graph () =
  let o = observe ~jobs:1 in
  match Experiments.Netobs.report_json o with
  | Obs.Json.Obj fields ->
    let arr name =
      match List.assoc_opt name fields with
      | Some (Obs.Json.Arr xs) -> xs
      | _ -> Alcotest.failf "report field %s missing or not an array" name
    in
    let g = Designs.Library.entry_gate_detector.Designs.Design.network in
    check Alcotest.int "one entry per node"
      (List.length (Graph.node_ids g))
      (List.length (arr "nodes"));
    check Alcotest.int "one entry per directed link"
      (List.length (Graph.edges g))
      (List.length (arr "links"));
    check Alcotest.bool "schema is versioned" true
      (List.assoc_opt "schema" fields
       = Some (Obs.Json.Str Sim.Telemetry.schema_name))
  | _ -> Alcotest.fail "report is not an object"

(* --- Timeline --------------------------------------------------------- *)

let test_timeline_records_lanes () =
  let g = two_zone in
  let config =
    { Experiments.Netobs.default_config with steps = 10; trials = 2 }
  in
  let recording = Experiments.Netobs.record_timeline ~config g in
  check Alcotest.bool "timeline captured events" true
    (Sim.Telemetry.timeline_events recording > 0);
  let path = Filename.temp_file "paredown_timeline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sim.Telemetry.write_timeline g recording path;
      let ic = open_in path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check Alcotest.bool "one thread_name lane per node" true
        (Testlib.contains text "thread_name");
      check Alcotest.bool "instants carry the event kind" true
        (Testlib.contains text "deliver "))

(* The first trial's plan does not depend on the trial count, so the
   timeline replay (a one-trial estimate) records exactly the run an
   observation's first trial does. *)
let test_timeline_replays_first_trial () =
  let g = two_zone in
  let config =
    { Experiments.Netobs.default_config with
      trials = 5;
      family = Some (Reliability.Family.Drop { rate = 0.2 }) }
  in
  let first =
    Experiments.Netobs.observe_network ~config:{ config with trials = 1 }
      ~name:"first" g
  in
  let report t = Obs.Json.to_string (Sim.Telemetry.report_json g t) in
  check Alcotest.string "timeline replay = first trial"
    (report first.Experiments.Netobs.telemetry)
    (report (Experiments.Netobs.record_timeline ~config g))

(* Without a family the timeline is the fault-free observation's run:
   the clean script replayed once, one settle per script step. *)
let test_clean_timeline_replays_once () =
  let g = two_zone in
  let config = { Experiments.Netobs.default_config with family = None } in
  let recording, entries =
    Obs.Metrics.with_scope (fun () ->
        Experiments.Netobs.record_timeline ~config g)
  in
  let settles =
    match List.find_opt (fun e -> e.Obs.Metrics.name = "sim.settles") entries with
    | Some { Obs.Metrics.value = n; _ } -> n
    | None -> 0
  in
  check Alcotest.int "one settle per script step"
    config.Experiments.Netobs.steps settles;
  let observed =
    Experiments.Netobs.observe_network ~config ~name:"clean" g
  in
  let report t = Obs.Json.to_string (Sim.Telemetry.report_json g t) in
  check Alcotest.string "timeline replay = fault-free observation"
    (report observed.Experiments.Netobs.telemetry)
    (report recording)

let test_timeline_cap_drops_oldest () =
  let t = Sim.Telemetry.create ~timeline:true ~timeline_cap:3 () in
  let g = two_zone in
  let engine = Sim.Engine.create ~telemetry:t g in
  ignore (Sim.Stimulus.settled_outputs engine (script g ~seed:5 ~steps:10));
  check Alcotest.int "capped" 3 (Sim.Telemetry.timeline_events t);
  check Alcotest.bool "dropped count reported" true
    (Sim.Telemetry.timeline_dropped t > 0)

(* --- VCD fault markers ------------------------------------------------ *)

let test_vcd_fault_markers () =
  let g = two_zone in
  let script = script g ~seed:21 ~steps:30 in
  let faulty =
    Sim.Vcd.record ~faults:(Sim.Fault.drop_all ~seed:7 0.2) g script
  in
  check Alcotest.bool "faults scope declared" true
    (Testlib.contains faulty "$scope module faults $end");
  List.iter
    (fun signal ->
      check Alcotest.bool (signal ^ " declared") true
        (Testlib.contains faulty signal))
    [ "fault_drops"; "fault_duplicates"; "fault_corruptions";
      "fault_jittered"; "fault_dead_losses"; "fault_resets"; "fault_stuck" ];
  (* a 20% drop plan over this script strikes at least once, so the
     drops counter leaves zero *)
  check Alcotest.bool "a drop strike is recorded" true
    (Testlib.contains faulty "b0000000000000001");
  let clean = Sim.Vcd.record g script in
  check Alcotest.bool "no markers without a plan" false
    (Testlib.contains clean "fault_drops")

(* --- Disabled-path overhead ------------------------------------------- *)

(* The site count is pinned: a new counting site on the unarmed path
   changes it, and must come with a fresh look at the bound. *)
let test_disabled_overhead () =
  let o = Experiments.Perf.telemetry_overhead ~iters:200_000 () in
  check Alcotest.int "counting sites on the sim sweep" 4273
    o.Experiments.Perf.sites;
  check Alcotest.bool
    (Printf.sprintf
       "disabled overhead %.5f of the sim sweep (guard %.2f ns x %d \
        counting sites) stays under 1%%"
       o.Experiments.Perf.ratio o.Experiments.Perf.guard_ns
       o.Experiments.Perf.sites)
    true
    (o.Experiments.Perf.ratio <= 0.01)

let () =
  Alcotest.run "telemetry"
    [
      ( "observer",
        [
          Alcotest.test_case "armed run matches unarmed" `Quick
            test_armed_run_matches_unarmed;
          Alcotest.test_case "strikes match fault stats" `Quick
            test_strikes_match_fault_stats;
          Alcotest.test_case "engine strike counters = collector" `Quick
            test_engine_counters_match_collector;
          Alcotest.test_case "merge is order independent" `Quick
            test_merge_is_order_independent;
          Alcotest.test_case "latency quantiles are exact ticks" `Quick
            test_latency_quantiles_exact;
        ] );
      ( "blame",
        [
          Alcotest.test_case "sums to severity across families" `Slow
            test_blame_sums_to_severity;
          Alcotest.test_case "table renders sites" `Slow
            test_blame_table_renders;
        ] );
      ( "report",
        [
          Alcotest.test_case "jobs invariant" `Slow
            test_observation_jobs_invariant;
          Alcotest.test_case "covers the whole graph" `Quick
            test_report_covers_whole_graph;
          Alcotest.test_case "observation is an estimate" `Quick
            test_observation_is_an_estimate;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "records per-node lanes" `Quick
            test_timeline_records_lanes;
          Alcotest.test_case "cap drops oldest" `Quick
            test_timeline_cap_drops_oldest;
          Alcotest.test_case "replays the first trial" `Quick
            test_timeline_replays_first_trial;
          Alcotest.test_case "fault-free replays the script once" `Quick
            test_clean_timeline_replays_once;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "fault markers" `Quick test_vcd_fault_markers;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "disabled hook guard is under 1% of a sweep"
            `Quick test_disabled_overhead;
        ] );
    ]

(* Benchmark harness: regenerates every table of the paper's evaluation,
   then measures the code paths behind each one with Bechamel.

   Structure (one Test.make per table / claim):
     kernel/*    — Dense-view cut/convexity primitives
     table1/*    — the 15 library designs (PareDown + exhaustive)
     table2/*    — random designs of the paper's bucket sizes
     scale/*     — the §5.2 465-inner-node claim
     worstcase/* — the §4.2 O(n^2) family
     ablation/*  — PareDown ingredient variants and the aggregation baseline
     codegen/*   — merge + C emission
     sim/*       — simulator settle and VCD export on a library design
     sim_kernel/* — settle of a long pre-scheduled script (doc/performance.md)
     faults/*    — fault-injection hook overhead and degradation grading
     power/*     — the packet-count power proxy
     frontend/*  — behaviour-language parsing

   Run with: dune exec bench/main.exe
   (set BENCH_TABLES_ONLY=1 to print the tables and skip the Bechamel
   timings; either way a machine-readable perf snapshot is written to
   BENCH_paredown.json — override the path with BENCH_JSON, or set
   BENCH_JSON= to skip it) *)

open Bechamel
open Toolkit

module Graph = Netlist.Graph

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate the paper's tables.                              *)

let print_tables () =
  print_endline "== Table 1: library designs (exhaustive vs PareDown) ==\n";
  let config =
    { Experiments.Table1.default_config with exhaustive_cutoff = 10 }
  in
  print_string (Experiments.Table1.to_table (Experiments.Table1.run ~config ()));
  print_endline "\n== Table 2: random designs (reduced bucket sizes) ==\n";
  let config =
    {
      Experiments.Table2.default_config with
      Experiments.Table2.sizes =
        [ (3, 80); (4, 80); (5, 60); (6, 50); (7, 40); (8, 30); (9, 15);
          (10, 8); (11, 4); (14, 60); (15, 60); (20, 40); (25, 30);
          (35, 15); (45, 8) ];
      exhaustive_cutoff = 11;
      exhaustive_deadline_s = 10.0;
    }
  in
  print_string (Experiments.Table2.to_table (Experiments.Table2.run ~config ()));
  print_endline "\n== Scalability (§5.2) ==\n";
  print_string (Experiments.Scale.to_table (Experiments.Scale.run_random ()));
  print_endline "\n== Worst case (§4.2) ==\n";
  print_string
    (Experiments.Scale.to_table (Experiments.Scale.run_worst_case ()));
  print_endline "\n== Ablations ==\n";
  print_string
    (Experiments.Ablation.to_table
       (Experiments.Ablation.run ~count:40 ~inner:20 ()));
  print_endline "\n== Power proxy: packets before/after synthesis ==\n";
  print_string (Experiments.Power.to_table (Experiments.Power.run ~steps:100 ()))

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks.                                  *)

let paredown_solution g = (Core.Paredown.run g).Core.Paredown.solution

let random_design ~seed ~inner =
  Randgen.Generator.generate ~rng:(Prng.create seed) ~inner ()

let library_networks =
  List.map (fun d -> d.Designs.Design.network) Designs.Library.table1

let small_library_networks =
  List.filter (fun g -> Graph.inner_count g <= 8) library_networks

let kernel_tests =
  (* The Dense-view primitives the search inner loops and the one-shot
     partition checks run on. *)
  let g = random_design ~seed:100 ~inner:100 in
  let members =
    Graph.partitionable_nodes g
    |> List.filteri (fun i _ -> i mod 2 = 0)
    |> Netlist.Node_id.set_of_list
  in
  let d = Netlist.Dense.of_graph g in
  let s = Netlist.Dense.set_of_ids d members in
  let some_member = Netlist.Node_id.Set.min_elt members in
  let some_idx = Netlist.Dense.index d some_member in
  Test.make_grouped ~name:"kernel"
    [
      Test.make ~name:"dense-of-graph"
        (Staged.stage (fun () -> Netlist.Dense.of_graph g));
      Test.make ~name:"dense-pins-used"
        (Staged.stage (fun () -> Netlist.Dense.pins_used d s));
      Test.make ~name:"dense-is-convex"
        (Staged.stage (fun () -> Netlist.Dense.is_convex d s));
      Test.make ~name:"dense-removal-delta"
        (Staged.stage (fun () -> Netlist.Dense.removal_delta d s some_idx));
      Test.make ~name:"dense-nets"
        (Staged.stage (fun () ->
             ( Netlist.Dense.inputs_used_nets d s,
               Netlist.Dense.outputs_used_nets d s )));
    ]

let table1_tests =
  Test.make_grouped ~name:"table1"
    [
      Test.make ~name:"paredown-library"
        (Staged.stage (fun () -> List.map paredown_solution library_networks));
      Test.make ~name:"exhaustive-library-small"
        (Staged.stage (fun () ->
             List.map
               (fun g -> (Core.Exhaustive.run g).Core.Exhaustive.solution)
               small_library_networks));
    ]

let table2_tests =
  let g8 = random_design ~seed:1 ~inner:8 in
  let g10 = random_design ~seed:2 ~inner:10 in
  let g20 = random_design ~seed:3 ~inner:20 in
  let g45 = random_design ~seed:4 ~inner:45 in
  Test.make_grouped ~name:"table2"
    [
      Test.make ~name:"paredown-random-10"
        (Staged.stage (fun () -> paredown_solution g10));
      Test.make ~name:"paredown-random-20"
        (Staged.stage (fun () -> paredown_solution g20));
      Test.make ~name:"paredown-random-45"
        (Staged.stage (fun () -> paredown_solution g45));
      Test.make ~name:"exhaustive-random-8"
        (Staged.stage (fun () ->
             (Core.Exhaustive.run g8).Core.Exhaustive.solution));
      Test.make ~name:"generator-random-20"
        (Staged.stage (fun () -> random_design ~seed:5 ~inner:20));
    ]

let scale_tests =
  let g465 = random_design ~seed:465 ~inner:465 in
  let g100 = random_design ~seed:100 ~inner:100 in
  Test.make_grouped ~name:"scale"
    [
      Test.make ~name:"paredown-100"
        (Staged.stage (fun () -> paredown_solution g100));
      Test.make ~name:"paredown-465"
        (Staged.stage (fun () -> paredown_solution g465));
    ]

let worstcase_tests =
  let w20 = Randgen.Generator.worst_case ~inner:20 in
  let w40 = Randgen.Generator.worst_case ~inner:40 in
  Test.make_grouped ~name:"worstcase"
    [
      Test.make ~name:"paredown-20"
        (Staged.stage (fun () -> paredown_solution w20));
      Test.make ~name:"paredown-40"
        (Staged.stage (fun () -> paredown_solution w40));
    ]

let ablation_tests =
  let g = random_design ~seed:6 ~inner:20 in
  let with_config config () =
    (Core.Paredown.run ~config g).Core.Paredown.solution
  in
  let base = Core.Paredown.default_config in
  Test.make_grouped ~name:"ablation"
    [
      Test.make ~name:"paredown-default" (Staged.stage (with_config base));
      Test.make ~name:"no-convexity"
        (Staged.stage
           (with_config
              {
                base with
                partition_config =
                  { Core.Partition.default_config with require_convex = false };
              }));
      Test.make ~name:"net-pin-counting"
        (Staged.stage
           (with_config
              {
                base with
                partition_config =
                  {
                    Core.Partition.default_config with
                    pin_counting = Core.Partition.Per_net;
                  };
              }));
      Test.make ~name:"multi-shape-2x2-4x4"
        (Staged.stage
           (with_config
              {
                base with
                shapes =
                  [
                    Core.Shape.default;
                    Core.Shape.make ~inputs:4 ~outputs:4 ~cost:1.9 ();
                  ];
              }));
      Test.make ~name:"aggregation-baseline"
        (Staged.stage (fun () -> Core.Aggregation.run g));
    ]

let codegen_tests =
  let g = Designs.Library.podium_timer_3.Designs.Design.network in
  let members = Netlist.Node_id.set_of_list [ 2; 3; 4; 5 ] in
  let d = Netlist.Dense.of_graph g in
  let plan = Codegen.Plan.build d members in
  let sol = (Core.Paredown.run g).Core.Paredown.solution in
  Test.make_grouped ~name:"codegen"
    [
      Test.make ~name:"plan-build"
        (Staged.stage (fun () -> Codegen.Plan.build d members));
      Test.make ~name:"c-emit"
        (Staged.stage (fun () ->
             Codegen.C_emit.program ~n_inputs:1 ~n_outputs:2
               plan.Codegen.Plan.program));
      Test.make ~name:"replace-network"
        (Staged.stage (fun () -> Codegen.Replace.apply g sol));
    ]

let sim_tests =
  let g = Designs.Library.two_zone_security.Designs.Design.network in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 21) ~sensors:(Graph.sensors g)
      ~steps:30 ~spacing:15
  in
  Test.make_grouped ~name:"sim"
    [
      Test.make ~name:"settle-two-zone-security"
        (Staged.stage (fun () ->
             let engine = Sim.Engine.create g in
             Sim.Stimulus.settled_outputs engine script));
      Test.make ~name:"vcd-record"
        (Staged.stage (fun () -> Sim.Vcd.record g script));
    ]

let sim_kernel_tests =
  (* The perf suite's settle workload (doc/performance.md "Simulator
     compilation") on a smaller design than lib/experiments/perf.ml, to
     keep bechamel's per-sample cost reasonable; the perf group holds
     the headline workload. *)
  let g = random_design ~seed:4 ~inner:60 in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 41) ~sensors:(Graph.sensors g)
      ~steps:400 ~spacing:5
  in
  let settle () =
    let engine = Sim.Engine.create g in
    Sim.Stimulus.apply engine script;
    Sim.Engine.settle ~limit:10_000_000 engine;
    Sim.Engine.output_values engine
  in
  Test.make_grouped ~name:"sim_kernel"
    [ Test.make ~name:"settle-compiled" (Staged.stage settle) ]

let fault_tests =
  (* The ?faults hook must stay free when absent and near-free when the
     plan is armed but trivial; the drop plan shows the live cost. *)
  let g = Designs.Library.two_zone_security.Designs.Design.network in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 21) ~sensors:(Graph.sensors g)
      ~steps:30 ~spacing:15
  in
  let settle faults () =
    let engine = Sim.Engine.create ?faults g in
    Sim.Stimulus.settled_outputs engine script
  in
  Test.make_grouped ~name:"faults"
    [
      Test.make ~name:"settle-no-plan" (Staged.stage (settle None));
      Test.make ~name:"settle-empty-plan"
        (Staged.stage (settle (Some Sim.Fault.none)));
      Test.make ~name:"settle-drop-5pct"
        (Staged.stage (settle (Some (Sim.Fault.drop_all ~seed:7 0.05))));
      Test.make ~name:"classify-drop-5pct"
        (Staged.stage (fun () ->
             Sim.Degrade.classify ~faults:(Sim.Fault.drop_all ~seed:7 0.05) g
               script));
    ]

let power_tests =
  Test.make_grouped ~name:"power"
    [
      Test.make ~name:"packets-podium"
        (Staged.stage (fun () ->
             Experiments.Power.run_design ~steps:50
               Designs.Library.podium_timer_3));
    ]

let obs_tests =
  (* A span with recording off and a counter bump are the per-call
     costs the instrumented hot paths pay when tracing is off; they must
     stay in the nanoseconds for the <5% table1 regression budget to
     hold. *)
  let c = Obs.Metrics.counter "bench.obs.scratch" in
  let g20 = random_design ~seed:3 ~inner:20 in
  Test.make_grouped ~name:"obs"
    [
      Test.make ~name:"span-recording-off"
        (Staged.stage (fun () -> Obs.Journal.with_span "bench" (fun () -> ())));
      Test.make ~name:"counter-incr"
        (Staged.stage (fun () -> Obs.Metrics.incr c));
      Test.make ~name:"paredown-20-chrome-traced"
        (Staged.stage (fun () ->
             Obs.Journal.start_spans ();
             let sol = paredown_solution g20 in
             ignore
               (Obs.Chrome.to_string
                  (Obs.Chrome.of_spans (Obs.Journal.stop_spans ())));
             sol));
    ]

let journal_tests =
  (* The provenance journal, enabled vs disabled, on the same table1
     sweep the flight recorder rides along with.  The disabled-path
     guard cost is measured and bounded separately
     (Experiments.Perf.journal_overhead, asserted below and in
     test/test_journal.ml). *)
  let sweep () = List.map paredown_solution library_networks in
  Test.make_grouped ~name:"journal"
    [
      Test.make ~name:"table1-disabled" (Staged.stage sweep);
      Test.make ~name:"table1-ring-4096"
        (Staged.stage (fun () ->
             let _j = Obs.Journal.install ~capacity:4096 () in
             Fun.protect
               ~finally:(fun () -> ignore (Obs.Journal.uninstall ()))
               sweep));
    ]

let telemetry_tests =
  (* The network observatory, unarmed vs armed, on the same settle
     workload; the unarmed hook is a match on a [None] collector whose
     cost is measured and bounded separately
     (Experiments.Perf.telemetry_overhead, asserted below and in
     test/test_telemetry.ml). *)
  let g = Designs.Library.two_zone_security.Designs.Design.network in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 21) ~sensors:(Graph.sensors g)
      ~steps:30 ~spacing:15
  in
  Test.make_grouped ~name:"telemetry"
    [
      Test.make ~name:"settle-unarmed"
        (Staged.stage (fun () ->
             let engine = Sim.Engine.create g in
             Sim.Stimulus.settled_outputs engine script));
      Test.make ~name:"settle-armed"
        (Staged.stage (fun () ->
             let telemetry = Sim.Telemetry.create () in
             let engine = Sim.Engine.create ~telemetry g in
             Sim.Stimulus.settled_outputs engine script));
      Test.make ~name:"merge-report"
        (Staged.stage (fun () ->
             let a = Sim.Telemetry.create ()
             and b = Sim.Telemetry.create () in
             ignore
               (Sim.Stimulus.settled_outputs
                  (Sim.Engine.create ~telemetry:a g) script);
             ignore
               (Sim.Stimulus.settled_outputs
                  (Sim.Engine.create ~telemetry:b g) script);
             Sim.Telemetry.report_json g (Sim.Telemetry.merge a b)));
    ]

let reliability_tests =
  (* The Monte-Carlo estimator alone, then the whole λ sweep whose later
     modes should be nearly free — the gap between the two is what the
     fingerprint memo cache buys. *)
  let entry_gate = Designs.Library.entry_gate_detector in
  let g = entry_gate.Designs.Design.network in
  let cfg = Reliability.Estimator.default_config in
  Test.make_grouped ~name:"reliability"
    [
      Test.make ~name:"estimate-entry-gate"
        (Staged.stage (fun () -> Reliability.Estimator.estimate_network cfg g));
      Test.make ~name:"sweep-entry-gate"
        (Staged.stage (fun () -> Experiments.Reliability.run_design entry_gate));
    ]

let service_tests =
  (* The batch server over in-memory pipes: a cold canonise+compute
     miss, the same request served warm from the cache, and the
     canonical fingerprint alone (the per-request overhead a hit
     pays). *)
  let g = Designs.Library.podium_timer_3.Designs.Design.network in
  let request id =
    Service.Protocol.render_request
      {
        Service.Protocol.id;
        op =
          Service.Protocol.Partition
            { backend = Service.Oneshot.Paredown; deadline_s = None };
        design = Some "Podium Timer 3";
        design_text = None;
        inputs = 2;
        outputs = 2;
      }
  in
  let serve frames =
    let req = Filename.temp_file "bench_service_req" ".bin" in
    let resp = Filename.temp_file "bench_service_resp" ".bin" in
    Fun.protect
      ~finally:(fun () ->
        Sys.remove req;
        Sys.remove resp)
      (fun () ->
        let oc = open_out_bin req in
        List.iter (Service.Protocol.write_frame oc) frames;
        close_out oc;
        let ic = open_in_bin req in
        let oc = open_out_bin resp in
        let summary = Service.Server.run ic oc in
        close_in ic;
        close_out oc;
        summary)
  in
  Test.make_grouped ~name:"service"
    [
      Test.make ~name:"serve-cold"
        (Staged.stage (fun () ->
             serve [ request "r1"; Service.Protocol.drain_frame ]));
      Test.make ~name:"serve-warm-10"
        (Staged.stage (fun () ->
             serve
               (List.init 10 (fun i -> request (Printf.sprintf "r%d" i))
               @ [ Service.Protocol.drain_frame ])));
      Test.make ~name:"canonise-podium"
        (Staged.stage (fun () -> Service.Canon.of_graph g));
    ]

let parse_tests =
  let source =
    Behavior.Ast.program_to_string
      (Codegen.Plan.build
         (Netlist.Dense.of_graph
            Designs.Library.podium_timer_3.Designs.Design.network)
         (Netlist.Node_id.set_of_list [ 2; 3; 4; 5 ]))
        .Codegen.Plan.program
  in
  Test.make_grouped ~name:"frontend"
    [
      Test.make ~name:"parse-merged-program"
        (Staged.stage (fun () -> Behavior.Parse.program source));
    ]

let all_tests =
  Test.make_grouped ~name:"paredown"
    [
      kernel_tests; table1_tests; table2_tests; scale_tests; worstcase_tests;
      ablation_tests; codegen_tests; sim_tests; sim_kernel_tests;
      fault_tests; power_tests;
      reliability_tests; obs_tests; journal_tests; telemetry_tests;
      service_tests; parse_tests;
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image

(* ------------------------------------------------------------------ *)
(* Part 3: the machine-readable perf snapshot (Experiments.Perf): one
   min-of-k wall time per bench group plus the full metrics registry,
   in the schema `paredown perf compare` gates against. *)

let write_perf_snapshot () =
  match Option.value (Sys.getenv_opt "BENCH_JSON") ~default:"BENCH_paredown.json" with
  | "" -> ()
  | path ->
    let snapshot = Experiments.Perf.record () in
    Obs.Snapshot.write_file snapshot path;
    Printf.printf "\nperf snapshot: %d groups, %d metrics -> %s\n"
      (List.length snapshot.Obs.Snapshot.times_ns)
      (List.length snapshot.Obs.Snapshot.metrics)
      path

(* The doc/provenance.md ≤1% claim, asserted on every bench run: the
   disabled emit-site guard times the events a journaled table1 sweep
   would emit must stay under 1% of the sweep's wall time. *)
let check_journal_overhead () =
  let o = Experiments.Perf.journal_overhead () in
  Printf.printf
    "\njournal disabled-path overhead: %.2f ns/guard x %d events = %.4f%% \
     of the table1 sweep (budget 1%%)\n"
    o.Experiments.Perf.guard_ns o.Experiments.Perf.events
    (100. *. o.Experiments.Perf.ratio);
  if o.Experiments.Perf.ratio > 0.01 then begin
    prerr_endline "FAIL: journal disabled-path overhead exceeds 1%";
    exit 1
  end

(* The doc/network-telemetry.md ≤1% claim, same shape: the unarmed
   engine's flag check times the counting sites an unarmed simulation
   sweep passes must stay under 1% of the unarmed sweep's wall time. *)
let check_telemetry_overhead () =
  let o = Experiments.Perf.telemetry_overhead () in
  Printf.printf
    "telemetry disabled-path overhead: %.2f ns/guard x %d counting sites = \
     %.4f%% of the sim sweep (budget 1%%)\n"
    o.Experiments.Perf.t_guard_ns o.Experiments.Perf.t_events
    (100. *. o.Experiments.Perf.t_ratio);
  if o.Experiments.Perf.t_ratio > 0.01 then begin
    prerr_endline "FAIL: telemetry disabled-path overhead exceeds 1%";
    exit 1
  end

let () =
  print_tables ();
  write_perf_snapshot ();
  check_journal_overhead ();
  check_telemetry_overhead ();
  if Sys.getenv_opt "BENCH_TABLES_ONLY" = None then begin
    print_endline "\n== Bechamel micro-benchmarks ==\n";
    run_benchmarks ()
  end

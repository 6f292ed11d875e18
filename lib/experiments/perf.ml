(* The perf suite behind `paredown perf record` (and `make bench`):
   one small, deterministic workload per group, each on the code path
   of one table or subsystem, sized so a full record stays in the
   seconds. *)

module Graph = Netlist.Graph

type group = {
  name : string;
  doc : string;
  run : unit -> unit;
}

let keep : 'a -> unit = ignore

let paredown_solution g = (Core.Paredown.run g).Core.Paredown.solution

let random_design ~seed ~inner =
  Randgen.Generator.generate ~rng:(Prng.create seed) ~inner ()

(* Shared inputs, built outside the timed region (see [record]'s warmup
   pass, which forces every lazy before the clocks start). *)
let library_networks =
  lazy (List.map (fun d -> d.Designs.Design.network) Designs.Library.table1)

let g10 = lazy (random_design ~seed:2 ~inner:10)
let g20 = lazy (random_design ~seed:3 ~inner:20)
let g45 = lazy (random_design ~seed:4 ~inner:45)
let g100 = lazy (random_design ~seed:100 ~inner:100)
let g150 = lazy (random_design ~seed:4 ~inner:150)
let w40 = lazy (Randgen.Generator.worst_case ~inner:40)

let podium = lazy Designs.Library.podium_timer_3.Designs.Design.network

let podium_members = Netlist.Node_id.set_of_list [ 2; 3; 4; 5 ]

let podium_plan =
  lazy
    (Codegen.Plan.build
       (Netlist.Dense.of_graph (Lazy.force podium))
       podium_members)

let podium_solution = lazy (paredown_solution (Lazy.force podium))

let two_zone = lazy Designs.Library.two_zone_security.Designs.Design.network

let two_zone_script =
  lazy
    (let g = Lazy.force two_zone in
     Sim.Stimulus.random ~rng:(Prng.create 21) ~sensors:(Graph.sensors g)
       ~steps:30 ~spacing:15)

let merged_source =
  lazy
    (Behavior.Ast.program_to_string
       (Lazy.force podium_plan).Codegen.Plan.program)

(* Long pre-scheduled stimulus on a mid-sized design: the settle drains
   ~25k events through every hot structure (wheel, overflow, compiled
   closures), so event throughput, not engine construction, is the
   measurement. *)
let kernel_script =
  lazy
    (let g = Lazy.force g150 in
     Sim.Stimulus.random ~rng:(Prng.create 41) ~sensors:(Graph.sensors g)
       ~steps:8000 ~spacing:5)

let g100_dense = lazy (Netlist.Dense.of_graph (Lazy.force g100))

let g100_half =
  lazy
    (let g = Lazy.force g100 in
     let d = Lazy.force g100_dense in
     let part = Graph.partitionable_nodes g in
     let half = List.filteri (fun i _ -> i mod 2 = 0) part in
     Netlist.Dense.set_of_ids d (Netlist.Node_id.set_of_list half))

let service_batch =
  lazy
    (let request ~id ~backend name =
       Libs.Service.Protocol.render_request
         {
           Libs.Service.Protocol.id;
           op = Libs.Service.Protocol.Partition { backend; deadline_s = None };
           design = Some name;
           design_text = None;
           inputs = 2;
           outputs = 2;
         }
     in
     let names =
       List.map (fun d -> d.Designs.Design.name) Designs.Library.table1
     in
     let n = ref 0 in
     let batch backend =
       List.map
         (fun name ->
           incr n;
           request ~id:(Printf.sprintf "r%d" !n) ~backend name)
         names
     in
     let cold =
       List.concat_map
         (fun _ -> batch Libs.Service.Oneshot.Paredown)
         [ 1; 2; 3; 4; 5; 6 ]
       @ batch Libs.Service.Oneshot.Aggregation
     in
     (* Two drain-delimited batches in one stream: the second replays
        the first against the now-warm in-memory cache, so the recorded
        service.cache_hits / cache_misses split is the real hit-rate
        axis (in-batch duplicates dedupe before they reach the cache
        and would otherwise record as misses). *)
     cold
     @ [ Libs.Service.Protocol.drain_frame ]
     @ cold
     @ [ Libs.Service.Protocol.drain_frame ])

let groups =
  [
    { name = "kernel";
      doc = "Dense cut/convexity queries on a 100-inner design";
      run =
        (fun () ->
          let d = Lazy.force g100_dense in
          let s = Lazy.force g100_half in
          for _ = 1 to 1000 do
            keep (Netlist.Dense.pins_used d s);
            keep (Netlist.Dense.is_convex d s)
          done) };
    { name = "exhaustive";
      doc = "Exhaustive bin-assignment search on a 10-inner random design";
      run =
        (fun () ->
          keep (Core.Exhaustive.run (Lazy.force g10)).Core.Exhaustive.solution) };
    { name = "table1"; doc = "PareDown over the 15 library designs";
      run =
        (fun () ->
          List.iter
            (fun g -> keep (paredown_solution g))
            (Lazy.force library_networks)) };
    { name = "table2"; doc = "PareDown on random designs (10/20/45 inner)";
      run =
        (fun () ->
          keep (paredown_solution (Lazy.force g10));
          keep (paredown_solution (Lazy.force g20));
          keep (paredown_solution (Lazy.force g45))) };
    { name = "scale"; doc = "PareDown on a 100-inner random design";
      run = (fun () -> keep (paredown_solution (Lazy.force g100))) };
    { name = "worstcase"; doc = "PareDown on the 40-inner §4.2 family";
      run = (fun () -> keep (paredown_solution (Lazy.force w40))) };
    { name = "ablation";
      doc = "PareDown without convexity + the aggregation baseline";
      run =
        (fun () ->
          let g = Lazy.force g20 in
          let config =
            {
              Core.Paredown.default_config with
              partition_config =
                { Core.Partition.default_config with require_convex = false };
            }
          in
          keep (Core.Paredown.run ~config g).Core.Paredown.solution;
          keep (Core.Aggregation.run g)) };
    { name = "codegen"; doc = "plan build + C emission + network rewrite";
      run =
        (fun () ->
          let g = Lazy.force podium in
          let plan = Lazy.force podium_plan in
          keep (Codegen.Plan.build (Netlist.Dense.of_graph g) podium_members);
          keep
            (Codegen.C_emit.program ~n_inputs:1 ~n_outputs:2
               plan.Codegen.Plan.program);
          keep (Codegen.Replace.apply g (Lazy.force podium_solution))) };
    { name = "sim"; doc = "settle + VCD on Two-Zone Security";
      run =
        (fun () ->
          let g = Lazy.force two_zone in
          let script = Lazy.force two_zone_script in
          let engine = Sim.Engine.create g in
          keep (Sim.Stimulus.settled_outputs engine script);
          keep (Sim.Vcd.record g script)) };
    { name = "faults"; doc = "settle under 5% drops + degradation grading";
      run =
        (fun () ->
          let g = Lazy.force two_zone in
          let script = Lazy.force two_zone_script in
          let faults = Sim.Fault.drop_all ~seed:7 0.05 in
          let engine = Sim.Engine.create ~faults g in
          keep (Sim.Stimulus.settled_outputs engine script);
          keep (Sim.Degrade.classify ~faults g script)) };
    { name = "reliability";
      doc = "λ sweep with the memoized Monte-Carlo estimator (Entry Gate)";
      run =
        (fun () ->
          (* [Reliability] here is the sibling experiments module, whose
             sweep covers estimator, cache, and weighted search at once. *)
          keep (Reliability.run_design Designs.Library.entry_gate_detector)) };
    { name = "power"; doc = "packet-count power proxy on Podium Timer 3";
      run =
        (fun () ->
          keep
            (Power.run_design ~steps:50 Designs.Library.podium_timer_3)) };
    { name = "frontend"; doc = "behaviour-language parse of a merged program";
      run =
        (fun () -> keep (Behavior.Parse.program (Lazy.force merged_source))) };
    { name = "journal";
      doc = "the table1 sweep with the provenance journal enabled (ring)";
      run =
        (fun () ->
          (* Same workload as the table1 group, but journaled the way the
             flight recorder runs it (bounded ring), so
             perf.journal_ns / perf.table1_ns is the enabled-path
             overhead on a real sweep. *)
          let _j = Obs.Journal.install ~capacity:4096 () in
          Fun.protect
            ~finally:(fun () -> ignore (Obs.Journal.uninstall ()))
            (fun () ->
              List.iter
                (fun g -> keep (paredown_solution g))
                (Lazy.force library_networks))) };
    { name = "sim_kernel";
      doc = "compiled-kernel settle of a 3000-flip script, 150-inner design";
      run =
        (fun () ->
          (* The engine's settle workload on a large design; this group
             also times engine construction. *)
          let g = Lazy.force g150 in
          let script = Lazy.force kernel_script in
          let engine = Sim.Engine.create g in
          Sim.Stimulus.apply engine script;
          Sim.Engine.settle ~limit:10_000_000 engine;
          keep (Sim.Engine.output_values engine)) };
    { name = "telemetry";
      doc = "settle on Two-Zone Security with the telemetry collector armed";
      run =
        (fun () ->
          (* Same settle workload as the sim group's first half, with a
             network-observatory collector armed, so
             perf.telemetry_ns vs perf.sim_ns bounds the enabled-path
             cost (the disabled path is measured by
             [telemetry_overhead]). *)
          let g = Lazy.force two_zone in
          let script = Lazy.force two_zone_script in
          let telemetry = Sim.Telemetry.create () in
          let engine = Sim.Engine.create ~telemetry g in
          keep (Sim.Stimulus.settled_outputs engine script)) };
    { name = "service";
      doc = "batch server: a 105-request mixed batch drained cold then \
             warm (perf.service_ns covers both, so requests/s = 210e9 \
             / it; the hit rate rides on the service.* counters, each \
             request's latency on its response's elapsed_ns)";
      run =
        (fun () ->
          (* Six resubmissions of Table 1 under PareDown plus one pass
             under aggregation (105 requests, 30 unique keys, 75
             in-batch hits), then the same batch replayed against the
             warm cache — the cold-vs-warm mix the hit-rate counters in
             bench/baseline.json describe. *)
          let batch = Lazy.force service_batch in
          let req = Filename.temp_file "perf_service_req" ".bin" in
          let resp = Filename.temp_file "perf_service_resp" ".bin" in
          Fun.protect
            ~finally:(fun () ->
              Sys.remove req;
              Sys.remove resp)
            (fun () ->
              let oc = open_out_bin req in
              List.iter
                (Libs.Service.Protocol.write_frame oc)
                batch;
              close_out oc;
              let ic = open_in_bin req in
              let oc = open_out_bin resp in
              keep (Libs.Service.Server.run ic oc);
              close_in ic;
              close_out oc)) };
  ]

(* ------------------------------------------------------------------ *)
(* The injected-slowdown hook: PAREDOWN_PERF_SLEEP_GROUP names a group,
   PAREDOWN_PERF_SLEEP_MS (default 100) how long to stall inside its
   timed region.  A busy-wait on the monotonic clock, so no unix
   dependency and no signal interaction; used by the regression-gate
   tests and by `make perf-smoke` demos. *)

let sleep_hook name =
  match Sys.getenv_opt "PAREDOWN_PERF_SLEEP_GROUP" with
  | Some g when g = name ->
    let ms =
      match
        Option.bind (Sys.getenv_opt "PAREDOWN_PERF_SLEEP_MS")
          float_of_string_opt
      with
      | Some ms -> ms
      | None -> 100.
    in
    let t0 = Obs.Clock.now_ns () in
    while Obs.Clock.elapsed_s t0 *. 1000. < ms do () done
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Disabled-path overhead.  An instrumentation site that is off costs
   one guard: a load of a [false] flag and a branch (the telemetry
   sites branch on a flag of the engine record, PareDown's journal
   sites on the [enabled ()] reading its closures hold).  [overhead]
   times that guard in a loop of its own, multiplies by the number of
   sites a sweep passes, and expresses the product as a fraction of the
   disabled sweep's wall time — the quantity the ≤1% claims in
   doc/provenance.md and doc/network-telemetry.md are about. *)

type overhead = {
  guard_ns : float;
  sites : int;
  sweep_ns : float;
  ratio : float;
}

(* Sixteen guards per loop pass, each the load-and-branch of a site:
   with one per pass the loop's own counter, exit branch and poll are
   in every reading, and where that code lands (a compare-and-branch
   across a 32-byte boundary) moves the reading by a cycle. *)
let guards_per_pass = 16

let[@inline never] guard_passes (flag : bool ref) passes =
  let hits = ref 0 in
  for _ = 1 to passes do
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits;
    if !flag then incr hits; if !flag then incr hits
  done;
  !hits

(* Both readings must be best-of-k: a single-shot guard reading carries
   any scheduling hiccup straight into the ratio.  The guard loop is far
   shorter than a sweep, so one preemption can cover several
   back-to-back guard loops; its repeats therefore run in bursts of
   [overhead_repeats] before each of the [overhead_repeats] sweeps. *)
let overhead_repeats = 3

let time_ns f =
  let t0 = Obs.Clock.now_ns () in
  f ();
  Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0)

let overhead ~iters ~sites sweep =
  let flag = Sys.opaque_identity (ref false) in
  let passes = max 1 (iters / guards_per_pass) in
  let hits = ref 0 in
  let guard_loop_ns = ref infinity and sweep_ns = ref infinity in
  for _ = 1 to overhead_repeats do
    for _ = 1 to overhead_repeats do
      guard_loop_ns :=
        Float.min !guard_loop_ns
          (time_ns (fun () -> hits := !hits + guard_passes flag passes))
    done;
    sweep_ns := Float.min !sweep_ns (time_ns sweep)
  done;
  assert (!hits = 0);
  let guard_ns = !guard_loop_ns /. float_of_int (passes * guards_per_pass) in
  { guard_ns; sites; sweep_ns = !sweep_ns;
    ratio = guard_ns *. float_of_int sites /. !sweep_ns }

(* The journal's sites on the table1 sweep: one guard per event a
   journaled sweep emits. *)
let journal_overhead ?(iters = 1_000_000) () =
  ignore (Obs.Journal.uninstall ());
  let sweep () =
    List.iter (fun g -> keep (paredown_solution g))
      (Lazy.force library_networks)
  in
  (* untimed pass: forces the lazies and warms caches *)
  sweep ();
  let j = Obs.Journal.install () in
  sweep ();
  ignore (Obs.Journal.uninstall ());
  overhead ~iters ~sites:(Obs.Journal.total j) sweep

(* The engine's counting sites, with neither a collector nor a fault
   plan armed, on a sweep that settles every Table 1 design under a
   seeded stimulus (the simulator hosts every counting site; the search
   path has none). *)
let sim_sweep_scripts =
  lazy
    (List.map
       (fun g ->
         ( g,
           Sim.Stimulus.random ~rng:(Prng.create 31)
             ~sensors:(Graph.sensors g) ~steps:15 ~spacing:15 ))
       (Lazy.force library_networks))

let telemetry_overhead ?(iters = 1_000_000) () =
  let sweep () =
    List.iter
      (fun (g, script) ->
        keep (Sim.Stimulus.settled_outputs (Sim.Engine.create g) script))
      (Lazy.force sim_sweep_scripts)
  in
  (* untimed pass: forces the lazies and warms caches *)
  sweep ();
  (* Site count from an armed pass over the same sweep: schedule and
     process per event, two per activation (its count and its
     presentation path) and one per sensor event (its presentation). *)
  let sites =
    List.fold_left
      (fun acc (g, script) ->
        let tel = Sim.Telemetry.create () in
        keep
          (Sim.Stimulus.settled_outputs (Sim.Engine.create ~telemetry:tel g)
             script);
        let per_node =
          List.fold_left
            (fun a (id, (n : Sim.Telemetry.node_stats)) ->
              let sensor = Graph.kind g id = Eblock.Kind.Sensor in
              a + (2 * n.activations) + if sensor then n.events else 0)
            0 (Sim.Telemetry.nodes tel)
        in
        acc + (2 * Sim.Telemetry.events tel) + per_node)
      0
      (Lazy.force sim_sweep_scripts)
  in
  overhead ~iters ~sites sweep

(* ------------------------------------------------------------------ *)

let time_key name = "perf." ^ name ^ "_ns"

let record ?(repeats = 3) ?(config = []) () =
  let repeats = max 1 repeats in
  Obs.Metrics.reset ();
  (* One untimed pass: forces the lazy inputs, warms allocator and
     caches, and — because it is the only pass the registry snapshot
     sees — makes every counter independent of [repeats], so snapshots
     recorded with different repeat counts still compare
     counter-for-counter. *)
  List.iter (fun g -> g.run ()) groups;
  let metrics = Obs.Metrics.snapshot () in
  let times_ns =
    List.map
      (fun g ->
        let best = ref infinity in
        for _ = 1 to repeats do
          let t0 = Obs.Clock.now_ns () in
          sleep_hook g.name;
          g.run ();
          let dt =
            Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0)
          in
          if dt < !best then best := dt
        done;
        (time_key g.name, !best))
      groups
  in
  Obs.Snapshot.make
    ~config:(("repeats", string_of_int repeats) :: ("suite", "perf") :: config)
    ~times_ns ~metrics ()

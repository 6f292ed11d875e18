(* Tests for the fault-injection layer: Sim.Fault plans, their engine
   hooks (drop / duplicate / corrupt / jitter / link death / stuck-at /
   spurious reset), the Sim.Degrade classifier, and the flat-vs-partitioned
   fault-tolerance experiment. *)

module Graph = Netlist.Graph
module C = Eblock.Catalog
module F = Sim.Fault

let check = Alcotest.check
let value = Testlib.value

let full_observation ?faults g script =
  let engine = Sim.Engine.create ?faults g in
  let obs = Sim.Stimulus.settled_outputs engine script in
  ( obs,
    Sim.Engine.trace engine,
    Sim.Engine.packet_count engine,
    Sim.Engine.activation_count engine )

(* --- Plans --------------------------------------------------------------- *)

let test_trivial_plans () =
  check Alcotest.bool "none is trivial" true (F.is_trivial F.none);
  check Alcotest.bool "drop 0 is trivial" true (F.is_trivial (F.drop_all 0.));
  check Alcotest.bool "drop 0.1 is not" false (F.is_trivial (F.drop_all 0.1));
  check Alcotest.bool "jitter is not" false
    (F.is_trivial (F.degrade_all ~jitter:2 ()));
  check Alcotest.bool "stuck is not" false
    (F.is_trivial
       {
         F.none with
         node_faults =
           [ (1, { F.no_node_fault with
                   stuck = [ { F.port = 0; value = Bool true; from = 0 } ] });
           ];
       })

(* A jitter past Fault.max_jitter would overflow the engine's draw and
   grow a collector's latency cells without bound, so arming one
   raises, as a default or as an override.  At the bound, with the
   unit wire delay, a link holds at most 257 cells. *)
let test_jitter_bound () =
  let g = Testlib.podium in
  let telemetry = Sim.Telemetry.create () in
  let engine =
    Sim.Engine.create ~faults:(F.degrade_all ~seed:4 ~jitter:F.max_jitter ())
      ~telemetry g
  in
  ignore
    (Sim.Stimulus.settled_outputs engine
       (Sim.Stimulus.random ~rng:(Prng.create 4) ~sensors:(Graph.sensors g)
          ~steps:20 ~spacing:300));
  check Alcotest.bool "some delivery jittered" true
    (Array.exists (fun cells -> Array.length cells > 2)
       telemetry.Sim.Telemetry.latency);
  Array.iter
    (fun cells ->
      check Alcotest.bool "at most 1 + max_jitter + 1 cells" true
        (Array.length cells <= F.max_jitter + 2))
    telemetry.Sim.Telemetry.latency;
  let over = { F.no_edge_fault with jitter = F.max_jitter + 1 } in
  List.iter
    (fun (what, faults) ->
      match Sim.Engine.create ~faults g with
      | _ -> Alcotest.failf "%s armed" what
      | exception Invalid_argument _ -> ())
    [
      ("default jitter 256", F.degrade_all ~jitter:(F.max_jitter + 1) ());
      ("default jitter max_int", F.degrade_all ~jitter:max_int ());
      ( "override jitter 256",
        { F.none with edge_overrides = [ (List.hd (Graph.edges g), over) ] } );
    ]

(* The acceptance criterion: an empty plan leaves output traces, packet
   counts, and settled observations bit-identical to an uninstrumented
   run, on every Table 1 design. *)
let test_empty_plan_transparent () =
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let script =
        Sim.Stimulus.random ~rng:(Prng.create 7)
          ~sensors:(Graph.sensors g) ~steps:15 ~spacing:20
      in
      check Alcotest.bool
        (d.Designs.Design.name ^ " transparent")
        true
        (full_observation g script = full_observation ~faults:F.none g script))
    Designs.Library.table1

let test_empty_plan_injects_nothing () =
  let g, sensor, _, _ = Testlib.chain [ C.not_gate; C.toggle ] in
  let engine = Sim.Engine.create ~faults:F.none g in
  Sim.Engine.set_sensor engine sensor true;
  Sim.Engine.settle engine;
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.int "no faults struck" 0 (F.total s)
  | None -> Alcotest.fail "fault stats absent despite a plan"

(* --- Fault classes, deterministically ------------------------------------ *)

let test_drop_everything () =
  let g, sensor, _, led = Testlib.chain [ C.not_gate ] in
  let engine = Sim.Engine.create ~faults:(F.drop_all ~seed:3 1.0) g in
  Sim.Engine.set_sensor engine sensor true;
  Sim.Engine.settle engine;
  (* the NOT's power-on value survives: the change never got through *)
  check value "led frozen at power-on value" (Bool true)
    (Sim.Engine.output_value engine led);
  check Alcotest.int "send attempt still counted" 1
    (Sim.Engine.packet_count engine);
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.int "one drop" 1 s.F.drops
  | None -> Alcotest.fail "no stats"

let test_duplication_absorbed_by_idempotence () =
  (* catalogue behaviours are idempotent under re-activation with
     unchanged inputs, so duplicated packets change no settled value —
     but they are injected and counted *)
  let g, sensor, _, _ = Testlib.chain [ C.toggle ] in
  let script =
    Sim.Stimulus.[ { time = 1; sensor; value = true };
                   { time = 10; sensor; value = false } ]
  in
  let clean_obs, clean_trace, _, _ = full_observation g script in
  let plan = F.degrade_all ~seed:5 ~duplicate:1.0 () in
  let engine = Sim.Engine.create ~faults:plan g in
  let obs = Sim.Stimulus.settled_outputs engine script in
  check Alcotest.bool "settled outputs unchanged" true (obs = clean_obs);
  check Alcotest.bool "trace unchanged" true
    (Sim.Engine.trace engine = clean_trace);
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.bool "duplicates struck" true (s.F.duplicates > 0)
  | None -> Alcotest.fail "no stats"

let test_corruption_flips_booleans () =
  let g, sensor, _, led = Testlib.chain [ C.not_gate ] in
  let engine =
    Sim.Engine.create ~faults:(F.degrade_all ~seed:5 ~corrupt:1.0 ()) g
  in
  Sim.Engine.set_sensor engine sensor true;
  Sim.Engine.settle engine;
  (* the rise was corrupted back to false in flight: the NOT never saw a
     change, so the led keeps showing true (clean run would show false) *)
  check value "led unchanged by corrupted packet" (Bool true)
    (Sim.Engine.output_value engine led);
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.bool "corruptions struck" true (s.F.corruptions > 0)
  | None -> Alcotest.fail "no stats"

let test_link_death () =
  let g, sensor, _, led = Testlib.chain [ C.not_gate ] in
  let plan =
    { F.none with
      seed = 9;
      default_edge = { F.no_edge_fault with dies_at = Some 10 } }
  in
  let engine = Sim.Engine.create ~faults:plan g in
  Sim.Engine.set_sensor_at engine ~time:1 sensor true;
  Sim.Engine.settle engine;
  check value "pre-death change propagates" (Bool false)
    (Sim.Engine.output_value engine led);
  Sim.Engine.set_sensor_at engine ~time:20 sensor false;
  Sim.Engine.settle engine;
  check value "post-death change lost" (Bool false)
    (Sim.Engine.output_value engine led);
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.bool "dead-link losses" true
                (s.F.dead_link_losses > 0)
  | None -> Alcotest.fail "no stats"

let test_stuck_at_output () =
  let g, sensor, inner, led = Testlib.chain [ C.not_gate ] in
  let gate = List.hd inner in
  let plan =
    { F.none with
      node_faults =
        [ (gate, { F.no_node_fault with
                   stuck = [ { F.port = 0; value = Bool false; from = 0 } ] });
        ] }
  in
  let engine = Sim.Engine.create ~faults:plan g in
  Sim.Engine.set_sensor_at engine ~time:1 sensor true;
  Sim.Engine.settle engine;
  check value "stuck low agrees with computed low" (Bool false)
    (Sim.Engine.output_value engine led);
  Sim.Engine.set_sensor_at engine ~time:10 sensor false;
  Sim.Engine.settle engine;
  (* clean run would drive the led back to true; the stuck port cannot *)
  check value "led held low by stuck output" (Bool false)
    (Sim.Engine.output_value engine led);
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.bool "override counted" true
                (s.F.stuck_overrides > 0)
  | None -> Alcotest.fail "no stats"

let test_spurious_reset_loses_state () =
  let g, sensor, inner, led = Testlib.chain [ C.toggle ] in
  let toggle = List.hd inner in
  let plan =
    { F.none with
      node_faults = [ (toggle, { F.no_node_fault with reset_at = [ 10 ] }) ] }
  in
  let run faults =
    let engine = Sim.Engine.create ?faults g in
    List.iter
      (fun (time, v) -> Sim.Engine.set_sensor_at engine ~time sensor v)
      [ (1, true); (20, false); (30, true) ];
    Sim.Engine.settle engine;
    (Sim.Engine.output_value engine led, engine)
  in
  let clean, _ = run None in
  let faulty, engine = run (Some plan) in
  (* two rises toggle twice: clean ends off; the brownout at t=10 erased
     the first flip, so the faulty toggle ends on — settled-to-wrong *)
  check value "clean run ends off" (Bool false) clean;
  check value "reset run ends on" (Bool true) faulty;
  match Sim.Engine.fault_stats engine with
  | Some s -> check Alcotest.int "one reset" 1 s.F.resets
  | None -> Alcotest.fail "no stats"

let test_fault_run_reproducible () =
  let g = Testlib.podium in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 31) ~sensors:(Graph.sensors g)
      ~steps:20 ~spacing:15
  in
  let plan =
    F.degrade_all ~seed:77 ~drop:0.1 ~duplicate:0.1 ~corrupt:0.05 ~jitter:3 ()
  in
  check Alcotest.bool "same plan, same run" true
    (full_observation ~faults:plan g script
     = full_observation ~faults:plan g script)

(* --- Degradation classification ------------------------------------------ *)

let script_for g seed steps =
  Sim.Stimulus.random ~rng:(Prng.create seed) ~sensors:(Graph.sensors g)
    ~steps ~spacing:20

let test_classify_empty_plan_identical () =
  let g = Testlib.podium in
  let run =
    Sim.Degrade.classify ~faults:F.none g (script_for g 5 15)
  in
  check Alcotest.string "identical" "identical"
    (Sim.Degrade.outcome_to_string run.Sim.Degrade.outcome);
  check Alcotest.int "nothing injected" 0 (F.total run.Sim.Degrade.injected);
  check Alcotest.int "no mismatches" 0 run.Sim.Degrade.mismatched_steps

let test_classify_total_drop_wrong_value () =
  let g, sensor, _, _ = Testlib.chain [ C.not_gate ] in
  (* a single rise: the clean led goes dark, the faulty one never hears
     about it — the final settled observation is wrong *)
  let script = Sim.Stimulus.[ { time = 5; sensor; value = true } ] in
  let run =
    Sim.Degrade.classify ~faults:(F.drop_all ~seed:2 1.0) g script
  in
  check Alcotest.string "settles to wrong value" "wrong-value"
    (Sim.Degrade.outcome_to_string run.Sim.Degrade.outcome);
  check Alcotest.int "final observation wrong" 1
    run.Sim.Degrade.mismatched_steps

let test_classify_event_limit_diverged () =
  (* an absurdly small per-step budget forces the faulty run into the
     Event_limit_exceeded path, which must classify, not raise *)
  let g = Testlib.podium in
  let run =
    Sim.Degrade.classify ~settle_limit:2 ~faults:(F.drop_all ~seed:3 0.5) g
      (script_for g 5 10)
  in
  check Alcotest.string "diverged" "diverged"
    (Sim.Degrade.outcome_to_string run.Sim.Degrade.outcome)

let test_classify_outcome_spectrum () =
  (* across many plan seeds a lossy podium shows both transient glitches
     and settled-wrong outcomes; fixed seeds keep this deterministic *)
  let g = Testlib.podium in
  let script = script_for g 11 20 in
  let outcomes =
    List.map
      (fun seed ->
        (Sim.Degrade.classify ~faults:(F.drop_all ~seed 0.05) g script)
          .Sim.Degrade.outcome)
      (List.init 30 (fun i -> i + 1))
  in
  let has o = List.mem o outcomes in
  check Alcotest.bool "some run recovers from a glitch" true
    (has Sim.Degrade.Glitch_recovered);
  check Alcotest.bool "some run settles wrong" true
    (has Sim.Degrade.Wrong_value);
  (* severity order is what the experiment tallies rely on *)
  check (Alcotest.list Alcotest.int) "severity order" [ 0; 1; 2; 3 ]
    (List.map Sim.Degrade.severity
       [ Sim.Degrade.Identical; Sim.Degrade.Glitch_recovered;
         Sim.Degrade.Wrong_value; Sim.Degrade.Diverged ])

(* Grading many plans against one clean run: one reference, one
   restarted engine ({!Sim.Degrade.classify_each}) = a fresh reference
   and engine per plan ({!Sim.Degrade.classify}), strike lists
   included, also when the event limit cuts runs off. *)
let test_sweep_shares_reference () =
  let g = Testlib.podium in
  let script = script_for g 5 10 in
  let plans =
    [ F.none; F.drop_all ~seed:4 0.1;
      F.degrade_all ~seed:6 ~duplicate:0.3 ~jitter:2 ();
      F.drop_all ~seed:4 0.1 ]
  in
  let reference = Sim.Degrade.reference g script in
  let results = Sim.Degrade.classify_each ~reference plans in
  check Alcotest.int "one result per plan" 4 (List.length results);
  check Alcotest.string "empty plan identical" "identical"
    (Sim.Degrade.outcome_to_string (List.hd results).Sim.Degrade.outcome);
  List.iter
    (fun settle_limit ->
      check Alcotest.bool
        (Printf.sprintf "shared reference = classify per plan (limit %d)"
           settle_limit)
        true
        (Sim.Degrade.classify_each ~settle_limit ~reference plans
         = List.map
             (fun faults -> Sim.Degrade.classify ~settle_limit ~faults g script)
             plans))
    [ 3; 100_000 ]

(* --- The experiment ------------------------------------------------------- *)

let small_config =
  {
    Experiments.Faults.default_config with
    trials = 3;
    drop_rates = [ 0.05 ];
    steps = 8;
  }

let test_experiment_deterministic () =
  let run () =
    Experiments.Faults.run_design ~config:small_config
      Designs.Library.podium_timer_3
  in
  check Alcotest.bool "same config, same rows" true (run () = run ())

let test_experiment_row_shape () =
  let rows =
    Experiments.Faults.run_design ~config:small_config
      Designs.Library.podium_timer_3
  in
  check Alcotest.int "one row per rate" 1 (List.length rows);
  let r = List.hd rows in
  check Alcotest.int "flat edges" 13 r.Experiments.Faults.flat_edges;
  check Alcotest.bool "partitioning removed fault sites" true
    (r.Experiments.Faults.part_edges < r.Experiments.Faults.flat_edges);
  let total (e : Reliability.Estimator.estimate) =
    e.identical + e.recovered + e.wrong + e.diverged
  in
  check Alcotest.int "flat tally covers every trial" small_config.trials
    (total r.Experiments.Faults.flat);
  check Alcotest.int "part tally covers every trial" small_config.trials
    (total r.Experiments.Faults.part);
  check Alcotest.bool "table renders" true
    (Testlib.contains
       (Experiments.Faults.to_table rows)
       "Podium Timer 3")

(* A row is a function of its own rate: running 10 % alone or after
   5 % gives the same row.  Drawing every rate's plans from one stream
   would make the 10 % row depend on the rates before it. *)
let test_experiment_rate_stable () =
  let config rates =
    { Experiments.Faults.default_config with trials = 6; drop_rates = rates }
  in
  let rows rates =
    Experiments.Faults.run_design ~config:(config rates)
      Designs.Library.podium_timer_3
  in
  check Alcotest.bool "10 % row alone = after 5 %" true
    (List.nth (rows [ 0.05; 0.1 ]) 1 = List.hd (rows [ 0.1 ]))

(* Both columns of a point are estimates under its drop:rate config, on
   the flat and the synthesised network: one script and one plan list
   for both. *)
let test_experiment_columns_paired () =
  let config =
    { Experiments.Faults.default_config with
      trials = 6; drop_rates = [ 0.05; 0.1 ] }
  in
  let d = Designs.Library.podium_timer_3 in
  let g = d.network in
  let g' = (fst (Codegen.Replace.synthesize g)).Codegen.Replace.network in
  List.iter
    (fun (r : Experiments.Faults.row) ->
      let estimator =
        {
          Reliability.Estimator.seed = config.seed;
          trials = config.trials;
          family = Reliability.Family.Drop { rate = r.drop };
          steps = config.steps;
          spacing = config.spacing;
          settle_limit = config.settle_limit;
        }
      in
      check Alcotest.bool
        (Printf.sprintf "flat column at %g = estimate_network" r.drop)
        true
        (r.flat = Reliability.Estimator.estimate_network estimator g);
      check Alcotest.bool
        (Printf.sprintf "partitioned column at %g = estimate_network" r.drop)
        true
        (r.part = Reliability.Estimator.estimate_network estimator g'))
    (Experiments.Faults.run_design ~config d)

(* --- The armed path allocates nothing per send or presentation ------------- *)

(* A plan that draws its drop, corruption and duplicate decisions on
   every send and scans a stuck-at entry on every presentation, but
   never strikes, with a collector armed too: its replay allocates
   exactly what the unarmed replay does, on every Table 1 design.  A
   jittered run is another run, so its replay into a collector is held
   against the same jittered replay without one: the first pass grows
   each link's latency cells to the largest latency it draws, and the
   restarted pass, drawing the same, finds them sized. *)
let test_armed_path_allocation_free () =
  let never = 1e-300 in
  List.iter
    (fun (d : Designs.Design.t) ->
      let g = d.network in
      let script =
        Sim.Stimulus.random ~rng:(Prng.create 5) ~sensors:(Graph.sensors g)
          ~steps:200 ~spacing:20
      in
      let plan =
        {
          (F.degrade_all ~seed:3 ~drop:never ~duplicate:never ~corrupt:never
             ())
          with
          node_faults =
            List.map
              (fun id ->
                ( id,
                  { F.no_node_fault with
                    stuck = [ { F.port = 0; value = Bool true; from = max_int } ];
                  } ))
              (Graph.inner_nodes g);
        }
      in
      let net = Sim.Engine.prepare g in
      let run engine =
        Sim.Stimulus.apply engine script;
        Sim.Engine.settle engine
      in
      let replay ?faults ?telemetry () =
        let engine = Sim.Engine.start ?faults ?telemetry net in
        (* the first pass sizes the calendar's buckets and store *)
        run engine;
        Sim.Engine.restart ?faults engine;
        let before = Gc.minor_words () in
        run engine;
        (Gc.minor_words () -. before, Sim.Engine.packet_count engine)
      in
      let unarmed_words, unarmed_packets = replay () in
      let armed_words, armed_packets =
        replay ~faults:plan ~telemetry:(Sim.Telemetry.create ()) ()
      in
      check Alcotest.int (d.name ^ ": same run") unarmed_packets armed_packets;
      check (Alcotest.float 0.) (d.name ^ ": no allocation when armed")
        unarmed_words armed_words;
      let jitter = F.degrade_all ~seed:3 ~jitter:3 () in
      let jittered_words, jittered_packets = replay ~faults:jitter () in
      let telemetry = Sim.Telemetry.create () in
      let observed_words, observed_packets =
        replay ~faults:jitter ~telemetry ()
      in
      check Alcotest.int (d.name ^ ": same jittered run") jittered_packets
        observed_packets;
      check Alcotest.bool (d.name ^ ": a latency past the wire delay") true
        (List.exists
           (fun (_, (l : Sim.Telemetry.link_stats)) -> l.latency.max > 1)
           (Sim.Telemetry.links telemetry));
      check (Alcotest.float 0.)
        (d.name ^ ": no allocation when jittered into a collector")
        jittered_words observed_words)
    Designs.Library.table1

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "trivial detection" `Quick test_trivial_plans;
          Alcotest.test_case "jitter bound" `Quick test_jitter_bound;
          Alcotest.test_case "empty plan transparent" `Quick
            test_empty_plan_transparent;
          Alcotest.test_case "empty plan injects nothing" `Quick
            test_empty_plan_injects_nothing;
        ] );
      ( "fault classes",
        [
          Alcotest.test_case "drop everything" `Quick test_drop_everything;
          Alcotest.test_case "duplication absorbed" `Quick
            test_duplication_absorbed_by_idempotence;
          Alcotest.test_case "corruption" `Quick test_corruption_flips_booleans;
          Alcotest.test_case "link death" `Quick test_link_death;
          Alcotest.test_case "stuck-at output" `Quick test_stuck_at_output;
          Alcotest.test_case "spurious reset" `Quick
            test_spurious_reset_loses_state;
          Alcotest.test_case "reproducible" `Quick test_fault_run_reproducible;
          Alcotest.test_case "armed path allocates nothing" `Quick
            test_armed_path_allocation_free;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "empty plan identical" `Quick
            test_classify_empty_plan_identical;
          Alcotest.test_case "total drop wrong value" `Quick
            test_classify_total_drop_wrong_value;
          Alcotest.test_case "event limit diverged" `Quick
            test_classify_event_limit_diverged;
          Alcotest.test_case "outcome spectrum" `Quick
            test_classify_outcome_spectrum;
          Alcotest.test_case "sweep" `Quick test_sweep_shares_reference;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "deterministic" `Quick
            test_experiment_deterministic;
          Alcotest.test_case "row shape" `Quick test_experiment_row_shape;
          Alcotest.test_case "rows are rate-stable" `Quick
            test_experiment_rate_stable;
          Alcotest.test_case "columns are paired estimates" `Quick
            test_experiment_columns_paired;
        ] );
    ]

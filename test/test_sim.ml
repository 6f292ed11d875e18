(* Unit and property tests for the discrete-event simulator, stimulus
   scripts, and co-simulation equivalence checking. *)

module Graph = Netlist.Graph
module C = Eblock.Catalog

let check = Alcotest.check
let value = Testlib.value

let bool_value = Alcotest.testable Behavior.Ast.pp_value Behavior.Ast.equal_value

(* --- Power-on sweep ----------------------------------------------------- *)

let test_power_on_consistency () =
  (* NOT of an off light-sensor must already read true at power-on *)
  let g, _, inner, led = Testlib.chain [ C.not_gate ] in
  let engine = Sim.Engine.create g in
  check value "not output after sweep" (Bool true)
    (Sim.Engine.port_value engine (List.hd inner) 0);
  check value "primary output sees it" (Bool true)
    (Sim.Engine.output_value engine led)

let test_power_on_no_events () =
  let g, _, _, _ = Testlib.chain [ C.not_gate; C.toggle ] in
  let engine = Sim.Engine.create g in
  check Alcotest.bool "no pending events" false (Sim.Engine.step engine);
  check Alcotest.int "clock at zero" 0 (Sim.Engine.now engine)

(* --- Basic propagation --------------------------------------------------- *)

let test_packet_propagation () =
  let g, sensor, inner, led = Testlib.chain [ C.not_gate; C.not_gate ] in
  ignore inner;
  let engine = Sim.Engine.create g in
  check value "initially false (double negation)" (Bool false)
    (Sim.Engine.output_value engine led);
  Sim.Engine.set_sensor engine sensor true;
  Sim.Engine.settle engine;
  check value "true propagates" (Bool true)
    (Sim.Engine.output_value engine led);
  (* 3 hops at wire_delay each *)
  check Alcotest.int "latency = hops" (3 * Sim.Engine.wire_delay)
    (Sim.Engine.now engine)

let test_change_driven () =
  (* setting the sensor to its current value generates no activity *)
  let g, sensor, _, _ = Testlib.chain [ C.not_gate ] in
  let engine = Sim.Engine.create g in
  Sim.Engine.settle engine;
  let before = Sim.Engine.activation_count engine in
  Sim.Engine.set_sensor engine sensor false;
  Sim.Engine.settle engine;
  check Alcotest.int "no activations" before
    (Sim.Engine.activation_count engine)

let test_trace () =
  let g, sensor, _, led = Testlib.chain [ C.not_gate ] in
  let engine = Sim.Engine.create g in
  Sim.Engine.set_sensor_at engine ~time:5 sensor true;
  Sim.Engine.set_sensor_at engine ~time:9 sensor false;
  Sim.Engine.settle engine;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int bool_value))
    "output changes recorded"
    [ (7, led, Bool false); (11, led, Bool true) ]
    (Sim.Engine.trace engine)

(* --- Timed blocks end to end --------------------------------------------- *)

let run_with_pulses g sensor pulses =
  let engine = Sim.Engine.create g in
  List.iter
    (fun (time, v) -> Sim.Engine.set_sensor_at engine ~time sensor v)
    pulses;
  Sim.Engine.settle engine;
  engine

let test_delay_block () =
  let g, sensor, _, led = Testlib.chain [ C.delay ~ticks:10 ] in
  let engine = run_with_pulses g sensor [ (1, true) ] in
  let trace = Sim.Engine.trace engine in
  (* rise at 1, arrives at delay at 2, fires at 12, led at 13 *)
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int bool_value))
    "transport latency" [ (13, led, Bool true) ] trace

let test_delay_inertial () =
  (* two changes inside the window: only the last survives *)
  let g, sensor, _, led = Testlib.chain [ C.delay ~ticks:10 ] in
  let engine = run_with_pulses g sensor [ (1, true); (4, false) ] in
  check value "glitch swallowed" (Bool false)
    (Sim.Engine.output_value engine led);
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int bool_value))
    "no spurious rise" [] (Sim.Engine.trace engine)

let test_pulse_gen_width () =
  let g, sensor, _, _led = Testlib.chain [ C.pulse_gen ~width:6 ] in
  let engine = run_with_pulses g sensor [ (1, true) ] in
  match Sim.Engine.trace engine with
  | [ (t_rise, _, Behavior.Ast.Bool true); (t_fall, _, Behavior.Ast.Bool false) ] ->
    check Alcotest.int "pulse width" 6 (t_fall - t_rise)
  | trace ->
    Alcotest.failf "unexpected trace (%d entries)" (List.length trace)

let test_prolong_block () =
  let g, sensor, _, led = Testlib.chain [ C.prolong ~ticks:8 ] in
  let engine = run_with_pulses g sensor [ (1, true); (5, false) ] in
  match Sim.Engine.trace engine with
  | [ (_, _, Behavior.Ast.Bool true); (t_fall, _, Behavior.Ast.Bool false) ] ->
    (* falls 8 ticks after the falling edge reaches the block (t=6) *)
    check Alcotest.int "prolonged fall" (6 + 8 + 1) t_fall;
    check value "finally off" (Bool false) (Sim.Engine.output_value engine led)
  | trace ->
    Alcotest.failf "unexpected trace (%d entries)" (List.length trace)

let test_prolong_retrigger () =
  (* a new rise inside the prolong window cancels the pending fall *)
  let g, sensor, _, led = Testlib.chain [ C.prolong ~ticks:8 ] in
  let engine =
    run_with_pulses g sensor [ (1, true); (3, false); (5, true) ]
  in
  ignore led;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int bool_value))
    "single rise, no fall"
    [ (3, List.nth (Graph.primary_outputs g) 0, Behavior.Ast.Bool true) ]
    (Sim.Engine.trace engine)

let test_toggle_in_network () =
  let g, sensor, _, led = Testlib.chain [ C.toggle ] in
  let engine =
    run_with_pulses g sensor
      [ (1, true); (5, false); (9, true); (13, false) ]
  in
  ignore led;
  let values =
    List.map (fun (_, _, v) -> v) (Sim.Engine.trace engine)
  in
  check (Alcotest.list bool_value) "on then off"
    [ Bool true; Bool false ] values

let test_blinker_oscillates () =
  let g, sensor, _, _ = Testlib.chain [ C.blinker ~period:5 ] in
  let engine = Sim.Engine.create g in
  Sim.Engine.set_sensor_at engine ~time:1 sensor true;
  Sim.Engine.run_until engine 40;
  let flips = List.length (Sim.Engine.trace engine) in
  check Alcotest.bool "several flips while held" true (flips >= 5);
  Sim.Engine.set_sensor engine sensor false;
  Sim.Engine.settle engine;
  check Alcotest.bool "stops when released" true
    (match Sim.Engine.trace engine with
     | [] -> false
     | trace ->
       (match List.rev trace with
        | (_, _, Behavior.Ast.Bool false) :: _ -> true
        | _ -> false))

(* --- Guards ---------------------------------------------------------------- *)

let test_engine_guards () =
  let g, sensor, inner, led = Testlib.chain [ C.not_gate ] in
  let engine = Sim.Engine.create g in
  let invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s did not raise" name
  in
  invalid "set_sensor on non-sensor" (fun () ->
      Sim.Engine.set_sensor engine (List.hd inner) true);
  invalid "output_value on non-output" (fun () ->
      Sim.Engine.output_value engine sensor |> ignore);
  invalid "port range" (fun () ->
      Sim.Engine.port_value engine led 0 |> ignore);
  Sim.Engine.set_sensor_at engine ~time:10 sensor true;
  Sim.Engine.run_until engine 20;
  invalid "past stimulus" (fun () ->
      Sim.Engine.set_sensor_at engine ~time:5 sensor false)

let test_settle_limit () =
  let g, sensor, _, _ = Testlib.chain [ C.blinker ~period:2 ] in
  let engine = Sim.Engine.create g in
  Sim.Engine.set_sensor engine sensor true;
  match Sim.Engine.settle ~limit:50 engine with
  | exception Sim.Engine.Event_limit_exceeded { clock; queue_depth; last_node }
    ->
    (* the exception carries enough context to classify the livelock *)
    check Alcotest.bool "clock advanced" true (clock > 0);
    check Alcotest.bool "events still pending" true (queue_depth > 0);
    (match last_node with
     | Some id -> check Alcotest.bool "last node in graph" true (Graph.mem g id)
     | None -> Alcotest.fail "last active node not recorded")
  | () -> Alcotest.fail "settle terminated on an oscillator"

(* --- Tie-order determinism ---------------------------------------------- *)

let shuffled_observation g seed script =
  let engine = Sim.Engine.create ~tie_order:(Sim.Engine.Shuffled seed) g in
  let obs = Sim.Stimulus.settled_outputs engine script in
  (obs, Sim.Engine.trace engine, Sim.Engine.packet_count engine)

let test_shuffled_same_seed_deterministic () =
  List.iter
    (fun g ->
      let script =
        Sim.Stimulus.random ~rng:(Prng.create 17)
          ~sensors:(Graph.sensors g) ~steps:25 ~spacing:10
      in
      List.iter
        (fun seed ->
          check Alcotest.bool
            (Printf.sprintf "seed %d replays identically" seed)
            true
            (shuffled_observation g seed script
             = shuffled_observation g seed script))
        [ 1; 2; 42 ])
    [
      Testlib.podium;
      Designs.Library.two_zone_security.Designs.Design.network;
      Randgen.Generator.generate ~rng:(Prng.create 879411) ~inner:5 ();
    ]

let test_shuffled_different_seeds_may_differ () =
  (* on a race-free design every tie order agrees; on a racy one the
     shuffled orders genuinely resolve races differently, so some pair of
     seeds must disagree *)
  let racy =
    Randgen.Generator.generate ~rng:(Prng.create 879411) ~inner:5 ()
  in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 879411)
      ~sensors:(Graph.sensors racy) ~steps:25 ~spacing:10
  in
  let reference = shuffled_observation racy 1 script in
  check Alcotest.bool "some seed resolves the races differently" true
    (List.exists
       (fun seed -> shuffled_observation racy seed script <> reference)
       [ 2; 3; 4; 5; 6; 7; 8 ])

let test_cyclic_rejected () =
  let g, s = Graph.add Graph.empty C.button in
  let g, a = Graph.add g C.and2 in
  let g = Graph.connect g ~src:(s, 0) ~dst:(a, 0) in
  let g = Graph.connect g ~src:(a, 0) ~dst:(a, 1) in
  match Sim.Engine.create g with
  | exception Graph.Structural_error _ -> ()
  | _ -> Alcotest.fail "engine accepted a cyclic network"

(* --- Stimulus --------------------------------------------------------------- *)

let test_random_script_deterministic () =
  let make seed =
    Sim.Stimulus.random ~rng:(Prng.create seed) ~sensors:[ 1; 2; 3 ]
      ~steps:25 ~spacing:10
  in
  check Alcotest.bool "same seed, same script" true (make 5 = make 5);
  check Alcotest.bool "different seed differs" true (make 5 <> make 6)

let test_random_script_toggles () =
  (* each step flips the tracked state of its sensor: consecutive steps on
     one sensor alternate *)
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 3) ~sensors:[ 7 ] ~steps:6
      ~spacing:4
  in
  let values = List.map (fun s -> s.Sim.Stimulus.value) script in
  check (Alcotest.list Alcotest.bool) "alternates"
    [ true; false; true; false; true; false ] values;
  check Alcotest.bool "times strictly increase" true
    (let times = List.map (fun s -> s.Sim.Stimulus.time) script in
     List.for_all2 ( < ) (0 :: times) (times @ [ max_int ])
     |> fun _ -> List.sort compare times = times)

(* A negative script length is an argument error, not an unbounded
   recursion. *)
let test_random_script_negative_steps () =
  Alcotest.check_raises "negative steps"
    (Invalid_argument "Stimulus.random: steps must be nonnegative") (fun () ->
      ignore
        (Sim.Stimulus.random ~rng:(Prng.create 1) ~sensors:[ 1 ] ~steps:(-1)
           ~spacing:4))

let test_settled_outputs () =
  let g, sensor, _, led = Testlib.chain [ C.not_gate ] in
  let engine = Sim.Engine.create g in
  let script =
    Sim.Stimulus.
      [
        { time = 5; sensor; value = true };
        { time = 15; sensor; value = false };
      ]
  in
  let obs = Sim.Stimulus.settled_outputs engine script in
  check Alcotest.int "one observation per step" 2 (List.length obs);
  check
    (Alcotest.list bool_value)
    "settled values"
    [ Bool false; Bool true ]
    (List.map (fun (_, outs) -> List.assoc led outs) obs)

(* --- Packet accounting --------------------------------------------------- *)

let test_packet_count () =
  let g, sensor, _, _ = Testlib.chain [ C.not_gate; C.not_gate ] in
  let engine = Sim.Engine.create g in
  check Alcotest.int "power-on sends no packets" 0
    (Sim.Engine.packet_count engine);
  Sim.Engine.set_sensor engine sensor true;
  Sim.Engine.settle engine;
  (* sensor->not, not->not, not->led *)
  check Alcotest.int "one packet per hop" 3 (Sim.Engine.packet_count engine)

(* --- VCD export ------------------------------------------------------------ *)

let test_vcd_structure () =
  let g, sensor, _, _ = Testlib.chain [ C.not_gate ] in
  let script =
    Sim.Stimulus.
      [ { time = 5; sensor; value = true };
        { time = 9; sensor; value = false } ]
  in
  let vcd = Sim.Vcd.record g script in
  List.iter
    (fun needle ->
      check Alcotest.bool needle true (Testlib.contains vcd needle))
    [ "$timescale"; "$var wire 1 ! "; "$enddefinitions"; "$dumpvars";
      "#7\n0!"; "#11\n1!" ]

let test_vcd_extra_probes () =
  let g = Testlib.podium in
  let script =
    Sim.Stimulus.
      [ { time = 2; sensor = 1; value = true } ]
  in
  let vcd =
    Sim.Vcd.record
      ~extra_probes:[ { Sim.Vcd.node = 2; port = 0; label = "toggle q" } ]
      g script
  in
  check Alcotest.bool "probe declared" true
    (Testlib.contains vcd "toggle_q");
  (* 3 outputs + 1 extra probe -> 4 $var lines *)
  let vars =
    List.length
      (List.filter
         (fun l -> String.length l >= 4 && String.sub l 0 4 = "$var")
         (String.split_on_char '\n' vcd))
  in
  check Alcotest.int "var count" 4 vars

let test_vcd_truncates_oscillator () =
  let g, sensor, _, _ = Testlib.chain [ C.blinker ~period:2 ] in
  let script = Sim.Stimulus.[ { time = 1; sensor; value = true } ] in
  (* must terminate despite the self-retriggering network *)
  let vcd = Sim.Vcd.record g script in
  check Alcotest.bool "nonempty" true (String.length vcd > 100)

(* --- Equivalence ------------------------------------------------------------- *)

let test_equiv_identical () =
  let g = Testlib.podium in
  Testlib.check_ok "identical networks"
    (Result.map_error
       (Format.asprintf "%a" Sim.Equiv.pp_mismatch)
       (Sim.Equiv.check_random ~reference:g ~candidate:g ~seed:4 ~steps:40))

let test_equiv_detects_difference () =
  let build gate =
    let g, s1 = Graph.add Graph.empty C.button in
    let g, s2 = Graph.add g C.button in
    let g, a = Graph.add g gate in
    let g, l = Graph.add g C.led in
    let g = Graph.connect g ~src:(s1, 0) ~dst:(a, 0) in
    let g = Graph.connect g ~src:(s2, 0) ~dst:(a, 1) in
    Graph.connect g ~src:(a, 0) ~dst:(l, 0)
  in
  match
    Sim.Equiv.check_random ~reference:(build C.or2) ~candidate:(build C.and2)
      ~seed:1 ~steps:30
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "or2 vs and2 not distinguished"

let test_timing_sensitivity () =
  (* a latch whose trigger path (1 hop) outruns its reset path (2 hops):
     deterministic under fixed delays, but the settled behaviour depends
     on the delay assignment *)
  let hazard =
    Randgen.Generator.generate ~rng:(Prng.create 578738) ~inner:3 ()
  in
  check Alcotest.bool "hazard design flagged" true
    (Sim.Equiv.timing_sensitive_random hazard ~seed:578738 ~steps:25);
  (* every library design is timing-insensitive: synthesis is exactly
     behaviour-preserving on them *)
  List.iter
    (fun d ->
      check Alcotest.bool
        (d.Designs.Design.name ^ " timing-insensitive")
        false
        (Sim.Equiv.timing_sensitive_random d.Designs.Design.network ~seed:9
           ~steps:25))
    Designs.Library.all

let test_race_detection () =
  (* this generated design latches a trip_reset from two same-length paths
     off one button — the counterexample that motivated the detector *)
  let racy =
    Randgen.Generator.generate ~rng:(Prng.create 879411) ~inner:5 ()
  in
  check Alcotest.bool "racy design flagged" true
    (Sim.Equiv.race_sensitive_random racy ~seed:879411 ~steps:25);
  check Alcotest.bool "podium race-free" false
    (Sim.Equiv.race_sensitive_random Testlib.podium ~seed:4 ~steps:40);
  List.iter
    (fun d ->
      check Alcotest.bool
        (d.Designs.Design.name ^ " race-free")
        false
        (Sim.Equiv.race_sensitive_random d.Designs.Design.network ~seed:9
           ~steps:30))
    Designs.Library.table1

let test_equiv_requires_same_interface () =
  let g1, _, _, _ = Testlib.chain [ C.not_gate ] in
  let g2 =
    let g, s = Graph.add Graph.empty C.button in
    let g, s' = Graph.add g C.button in
    let g, a = Graph.add g C.and2 in
    let g, l = Graph.add g C.led in
    let g = Graph.connect g ~src:(s, 0) ~dst:(a, 0) in
    let g = Graph.connect g ~src:(s', 0) ~dst:(a, 1) in
    Graph.connect g ~src:(a, 0) ~dst:(l, 0)
  in
  match Sim.Equiv.check_random ~reference:g1 ~candidate:g2 ~seed:1 ~steps:5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "interface mismatch accepted"

(* --- Properties ----------------------------------------------------------------- *)

let prop_simulation_deterministic =
  QCheck.Test.make ~name:"same script, same settled outputs" ~count:40
    (Testlib.network_arbitrary ~max_inner:15 ()) (fun (_, seed, g) ->
      let script =
        Sim.Stimulus.random ~rng:(Prng.create seed)
          ~sensors:(Graph.sensors g) ~steps:15 ~spacing:25
      in
      let run () =
        Sim.Stimulus.settled_outputs (Sim.Engine.create g) script
      in
      run () = run ())

let prop_network_equivalent_to_itself =
  QCheck.Test.make ~name:"every generated network equals itself" ~count:30
    (Testlib.network_arbitrary ~max_inner:12 ()) (fun (_, seed, g) ->
      match
        Sim.Equiv.check_random ~reference:g ~candidate:g ~seed ~steps:20
      with
      | Ok () -> true
      | Error _ -> false)

let () =
  Alcotest.run "sim"
    [
      ( "power-on",
        [
          Alcotest.test_case "consistent outputs" `Quick
            test_power_on_consistency;
          Alcotest.test_case "no initial events" `Quick
            test_power_on_no_events;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "packets" `Quick test_packet_propagation;
          Alcotest.test_case "change driven" `Quick test_change_driven;
          Alcotest.test_case "trace" `Quick test_trace;
        ] );
      ( "timed blocks",
        [
          Alcotest.test_case "delay latency" `Quick test_delay_block;
          Alcotest.test_case "delay inertial" `Quick test_delay_inertial;
          Alcotest.test_case "pulse width" `Quick test_pulse_gen_width;
          Alcotest.test_case "prolong" `Quick test_prolong_block;
          Alcotest.test_case "prolong retrigger" `Quick
            test_prolong_retrigger;
          Alcotest.test_case "toggle" `Quick test_toggle_in_network;
          Alcotest.test_case "blinker" `Quick test_blinker_oscillates;
        ] );
      ( "guards",
        [
          Alcotest.test_case "argument validation" `Quick test_engine_guards;
          Alcotest.test_case "settle limit" `Quick test_settle_limit;
          Alcotest.test_case "cyclic rejected" `Quick test_cyclic_rejected;
        ] );
      ( "tie order",
        [
          Alcotest.test_case "same seed deterministic" `Quick
            test_shuffled_same_seed_deterministic;
          Alcotest.test_case "different seeds may differ" `Quick
            test_shuffled_different_seeds_may_differ;
        ] );
      ( "stimulus",
        [
          Alcotest.test_case "deterministic" `Quick
            test_random_script_deterministic;
          Alcotest.test_case "toggling steps" `Quick
            test_random_script_toggles;
          Alcotest.test_case "negative steps rejected" `Quick
            test_random_script_negative_steps;
          Alcotest.test_case "settled outputs" `Quick test_settled_outputs;
        ] );
      ( "packets",
        [ Alcotest.test_case "count" `Quick test_packet_count ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "extra probes" `Quick test_vcd_extra_probes;
          Alcotest.test_case "oscillator truncation" `Quick
            test_vcd_truncates_oscillator;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "identical" `Quick test_equiv_identical;
          Alcotest.test_case "detects difference" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "race detection" `Quick test_race_detection;
          Alcotest.test_case "timing sensitivity" `Quick
            test_timing_sensitivity;
          Alcotest.test_case "interface check" `Quick
            test_equiv_requires_same_interface;
        ] );
      ( "properties",
        Testlib.qtests
          [ prop_simulation_deterministic; prop_network_equivalent_to_itself ] );
    ]

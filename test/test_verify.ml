(* Tests for Verify v2: the three-tier equivalence subsystem (exhaustive
   proof, bounded sequential proof, differential co-simulation) and the
   counterexample shrinker. *)

module Graph = Netlist.Graph
module Catalog = Eblock.Catalog

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium

(* --- tier 2: bounded sequential proof ----------------------------------- *)

let test_sequential_merge_bounded () =
  (* not -> toggle is stateful but timer-free: the product state space is
     tiny and must close with no divergence *)
  let g, _, inner, _ = Testlib.chain [ Catalog.not_gate; Catalog.toggle ] in
  match Codegen.Verify.check_partition g (Netlist.Node_id.set_of_list inner) with
  | Codegen.Verify.Bounded_equivalent { states; depth } ->
    check Alcotest.bool "explored more than the initial state" true (states >= 2);
    check Alcotest.bool "needed at least one input step" true (depth >= 1)
  | v ->
    Alcotest.failf "expected Bounded_equivalent, got %a"
      Codegen.Verify.pp_status v

let test_toggle_chain_bounded () =
  let g, _, inner, _ = Testlib.chain [ Catalog.toggle; Catalog.not_gate ] in
  match Codegen.Verify.check_partition g (Netlist.Node_id.set_of_list inner) with
  | Codegen.Verify.Bounded_equivalent _ -> ()
  | v ->
    Alcotest.failf "expected Bounded_equivalent, got %a"
      Codegen.Verify.pp_status v

let test_exhausted_budget_falls_back () =
  (* a one-state budget cannot close even the tiny toggle product space,
     so the verdict must degrade to co-simulation, never to a silent skip *)
  let g, _, inner, _ = Testlib.chain [ Catalog.not_gate; Catalog.toggle ] in
  let config =
    { Codegen.Verify.default_config with max_states = 1; max_transitions = 1 }
  in
  match Codegen.Verify.check_partition ~config g (Netlist.Node_id.set_of_list inner) with
  | Codegen.Verify.Cosim_passed _ -> ()
  | v ->
    Alcotest.failf "expected Cosim_passed fallback, got %a"
      Codegen.Verify.pp_status v

let test_input_width_budget () =
  (* force the width budget to zero: even a combinational partition must
     fall back to co-simulation instead of enumerating (guards 1 lsl n) *)
  let g = Designs.Library.any_window_open_alarm.Designs.Design.network in
  let config = { Codegen.Verify.default_config with max_input_bits = 0 } in
  match Codegen.Verify.check_partition ~config g (set [ 5; 6; 7 ]) with
  | Codegen.Verify.Cosim_passed _ | Codegen.Verify.Skipped _ -> ()
  | v ->
    Alcotest.failf "expected a sampled verdict under a zero width budget, \
                    got %a"
      Codegen.Verify.pp_status v

let test_wide_partition_not_vacuous () =
  (* 31 independent and2 gates give a combinational partition of 62 input
     pins.  Even under a width budget of 100, 2^62 assignments cannot be
     counted in an int ([1 lsl 62] is negative), so the exhaustive tier
     would check none of them and "prove" the merge; it must fall back
     to co-simulation instead. *)
  let g, gates =
    List.fold_left
      (fun (g, gates) _ ->
        let g, s1 = Graph.add g Catalog.button in
        let g, s2 = Graph.add g Catalog.button in
        let g, gate = Graph.add g Catalog.and2 in
        let g, led = Graph.add g Catalog.led in
        let g = Graph.connect g ~src:(s1, 0) ~dst:(gate, 0) in
        let g = Graph.connect g ~src:(s2, 0) ~dst:(gate, 1) in
        (Graph.connect g ~src:(gate, 0) ~dst:(led, 0), gate :: gates))
      (Graph.empty, []) (List.init 31 Fun.id)
  in
  let config =
    {
      Codegen.Verify.default_config with
      max_input_bits = 100;
      cosim = { Codegen.Cosim.default_config with scripts = 1 };
    }
  in
  match Codegen.Verify.check_partition ~config g (set gates) with
  | Codegen.Verify.Proven ->
    Alcotest.fail "62 input pins reported as proven exhaustively"
  | Codegen.Verify.Cosim_passed _ | Codegen.Verify.Skipped _ -> ()
  | v ->
    Alcotest.failf "expected a sampled verdict, got %a"
      Codegen.Verify.pp_status v

(* --- tier 3: differential co-simulation and the shrinker ----------------- *)

(* Two networks with identical ids and interface but a different inner
   gate: the honest reference computes AND, the corrupted candidate OR. *)
let gate_pair ref_gate bad_gate =
  let build gate =
    let g, s1 = Graph.add Graph.empty Catalog.button in
    let g, s2 = Graph.add g Catalog.contact_switch in
    let g, n = Graph.add g gate in
    let g, l = Graph.add g Catalog.led in
    let g = Graph.connect g ~src:(s1, 0) ~dst:(n, 0) in
    let g = Graph.connect g ~src:(s2, 0) ~dst:(n, 1) in
    Graph.connect g ~src:(n, 0) ~dst:(l, 0)
  in
  (build ref_gate, build bad_gate)

let test_cosim_agrees_on_equal_networks () =
  let reference, candidate = gate_pair Catalog.and2 Catalog.and2 in
  match Codegen.Cosim.run ~reference candidate with
  | Codegen.Cosim.Agreed { scripts; checks } ->
    check Alcotest.bool "at least one usable script" true (scripts >= 1);
    check Alcotest.bool "baseline plus perturbations" true (checks > scripts)
  | Codegen.Cosim.Diverged f ->
    Alcotest.failf "identical networks diverged: %a" Codegen.Cosim.pp_failure f
  | Codegen.Cosim.Inconclusive reason ->
    Alcotest.failf "inconclusive on a race-free design: %s" reason

let test_cosim_finds_and_shrinks_corruption () =
  let reference, candidate = gate_pair Catalog.and2 Catalog.or2 in
  match Codegen.Cosim.run ~reference candidate with
  | Codegen.Cosim.Diverged f ->
    (* AND vs OR differs as soon as exactly one sensor is high, so the
       minimal counterexample is a single step at the earliest time *)
    check Alcotest.int "shrunk to one step" 1 (List.length f.Codegen.Cosim.script);
    (match f.Codegen.Cosim.script with
     | [ step ] -> check Alcotest.int "time lowered" 1 step.Sim.Stimulus.time
     | _ -> ());
    check Alcotest.int "original length recorded"
      Codegen.Cosim.default_config.Codegen.Cosim.steps
      f.Codegen.Cosim.original_steps;
    check Alcotest.bool "shrunk script still fails" true
      (Result.is_error
         (Sim.Equiv.check ~perturbation:f.Codegen.Cosim.perturbation
            ~reference ~candidate f.Codegen.Cosim.script));
    check Alcotest.bool "failure renders" true
      (Testlib.contains
         (Format.asprintf "%a" Codegen.Cosim.pp_failure f)
         "shrunk from")
  | Codegen.Cosim.Agreed _ -> Alcotest.fail "corrupted candidate not caught"
  | Codegen.Cosim.Inconclusive reason ->
    Alcotest.failf "inconclusive on a race-free design: %s" reason

let test_latent_race_checked_at_baseline () =
  (* Regression, fuzz seed 2027: PareDown puts {toggle, delay, or2} in
     one partition.  The flat design carries a latent tie between the
     delay block's timer expiry and a packet delivery which its own event
     schedule happens to resolve consistently — the flat-side
     sensitivity sample passes — while the rewrite's different schedule
     exposes it under shuffled tie orders.  The verifier used to report
     that undefined race as a merge divergence; it must instead check
     such scripts under the baseline engine only and count them. *)
  let g = Randgen.Generator.generate ~rng:(Prng.create 2027) ~inner:6 () in
  let sol = (Core.Paredown.run g).Core.Paredown.solution in
  let part = List.hd sol.Core.Solution.partitions in
  let rewrite = Codegen.Replace.apply g { Core.Solution.partitions = [ part ] } in
  let candidate = rewrite.Codegen.Replace.network in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 2005) ~sensors:(Graph.sensors g)
      ~steps:40 ~spacing:20
  in
  let pool = Sim.Equiv.perturbations 4 in
  (* pin the scenario's shape: the race shows only on the rewrite *)
  check Alcotest.bool "flat design pool-insensitive" false
    (Sim.Equiv.sensitive_under g pool script);
  check Alcotest.bool "rewrite exposes the race" true
    (Sim.Equiv.sensitive_under candidate pool script);
  let (report, outcome), entries =
    Obs.Metrics.with_scope (fun () ->
        ( Codegen.Verify.check_solution g sol,
          Codegen.Cosim.run ~reference:g candidate ))
  in
  (match outcome with
   | Codegen.Cosim.Agreed { scripts; _ } ->
     check Alcotest.bool "usable scripts" true (scripts >= 1)
   | Codegen.Cosim.Diverged f ->
     Alcotest.failf "undefined race reported as a merge divergence: %a"
       Codegen.Cosim.pp_failure f
   | Codegen.Cosim.Inconclusive reason -> Alcotest.fail reason);
  check Alcotest.bool "whole solution verifies" true
    (Codegen.Verify.ok report);
  let race_limited =
    match
      List.find_opt
        (fun e -> e.Obs.Metrics.name = "codegen.cosim.race_limited_scripts")
        entries
    with
    | Some { Obs.Metrics.value = Obs.Metrics.Count n; _ } -> n
    | Some _ | None -> 0
  in
  check Alcotest.bool "race-limited scripts counted" true (race_limited >= 1)

let test_shrink_synthetic () =
  (* predicate: fails whenever sensor 1 is driven high; everything else
     must be dropped and the surviving step pulled down to time 1 *)
  let mk time sensor value = { Sim.Stimulus.time; sensor; value } in
  let script =
    List.init 12 (fun i -> mk ((i + 1) * 7) (1 + (i mod 3)) (i mod 2 = 0))
  in
  let still_fails s =
    List.exists
      (fun (st : Sim.Stimulus.step) -> st.sensor = 1 && st.value)
      s
  in
  let shrunk = Codegen.Cosim.shrink ~still_fails script in
  check Alcotest.int "one step survives" 1 (List.length shrunk);
  (match shrunk with
   | [ st ] ->
     check Alcotest.int "sensor kept" 1 st.Sim.Stimulus.sensor;
     check Alcotest.bool "value kept" true st.Sim.Stimulus.value;
     check Alcotest.int "time minimised" 1 st.Sim.Stimulus.time
   | _ -> ());
  check Alcotest.bool "shrink never empties a failing script" true
    (still_fails shrunk)

let test_shrink_keeps_dependent_pairs () =
  (* predicate needs two particular steps in order; both must survive *)
  let mk time sensor value = { Sim.Stimulus.time; sensor; value } in
  let script = List.init 10 (fun i -> mk ((i + 1) * 5) (i mod 4) true) in
  let still_fails s =
    let sensors = List.map (fun (st : Sim.Stimulus.step) -> st.sensor) s in
    List.mem 2 sensors && List.mem 3 sensors
  in
  let shrunk = Codegen.Cosim.shrink ~still_fails script in
  check Alcotest.int "two steps survive" 2 (List.length shrunk);
  check Alcotest.bool "still failing" true (still_fails shrunk)

(* --- satellite fixes ----------------------------------------------------- *)

let test_stimulus_spacing_clamped () =
  (* spacing 0 used to crash Prng.int; it now means "a flip every tick" *)
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 3) ~sensors:[ 1; 2 ] ~steps:10
      ~spacing:0
  in
  check Alcotest.int "all steps generated" 10 (List.length script);
  let rec strictly_increasing prev = function
    | [] -> true
    | (st : Sim.Stimulus.step) :: rest ->
      st.time > prev && strictly_increasing st.time rest
  in
  check Alcotest.bool "times strictly increase from 0" true
    (strictly_increasing 0 script)

let test_plan_counters_pinned () =
  (* the endpoint-table rewrite must not change what the counters count:
     one plan per build, one merged node per member *)
  let (), entries =
    Obs.Metrics.with_scope (fun () ->
        ignore (Codegen.Plan.build podium (set [ 2; 3; 4; 5 ]));
        ignore (Codegen.Plan.build podium (set [ 6; 8; 9 ])))
  in
  let count name =
    match
      List.find_opt (fun e -> e.Obs.Metrics.name = name) entries
    with
    | Some { Obs.Metrics.value = Obs.Metrics.Count n; _ } -> n
    | Some _ | None -> -1
  in
  check Alcotest.int "plans built" 2 (count "codegen.plans_built");
  check Alcotest.int "merged nodes" 7 (count "codegen.merged_nodes")

let test_perturbation_pool () =
  let ps = Sim.Equiv.perturbations 4 in
  check Alcotest.int "requested count" 4 (List.length ps);
  check Alcotest.int "pool capped" 8 (List.length (Sim.Equiv.perturbations 100));
  let labels = List.map (fun p -> p.Sim.Equiv.p_label) ps in
  check Alcotest.int "labels distinct" (List.length labels)
    (List.length (List.sort_uniq String.compare labels));
  check Alcotest.bool "deterministic" true (Sim.Equiv.perturbations 4 = ps)

(* --- whole-solution reporting -------------------------------------------- *)

let test_report_no_silent_skips () =
  (* every Table 1 design: each partition must land in exactly one
     bucket, and none may fail *)
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      let report = Codegen.Verify.check_solution g sol in
      check Alcotest.int
        (d.Designs.Design.name ^ ": one status per partition")
        (Core.Solution.programmable_count sol)
        (List.length report.Codegen.Verify.results);
      let t = Codegen.Verify.tally report in
      check Alcotest.int (d.Designs.Design.name ^ ": buckets sum")
        (Core.Solution.programmable_count sol)
        Codegen.Verify.(
          t.proven + t.bounded + t.cosim_passed + t.failed + t.skipped);
      if not (Codegen.Verify.ok report) then
        Alcotest.failf "%s failed verification: %a" d.Designs.Design.name
          Codegen.Verify.pp_report report)
    Designs.Library.table1

let prop_random_solutions_never_fail =
  (* the fuzz experiment at test scale: whatever tier applies, no
     partition of a PareDown solution may produce a counterexample *)
  QCheck.Test.make ~name:"random PareDown solutions verify without failures"
    ~count:10
    (Testlib.network_arbitrary ~max_inner:10 ()) (fun (_, _, g) ->
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      Codegen.Verify.ok (Codegen.Verify.check_solution g sol))

let () =
  Alcotest.run "verify"
    [
      ( "bounded",
        [
          Alcotest.test_case "sequential merge closes" `Quick
            test_sequential_merge_bounded;
          Alcotest.test_case "toggle chain closes" `Quick
            test_toggle_chain_bounded;
          Alcotest.test_case "budget exhaustion falls back" `Quick
            test_exhausted_budget_falls_back;
          Alcotest.test_case "input width budget" `Quick
            test_input_width_budget;
          Alcotest.test_case "no vacuous proof at 62 pins" `Quick
            test_wide_partition_not_vacuous;
        ] );
      ( "cosim",
        [
          Alcotest.test_case "equal networks agree" `Quick
            test_cosim_agrees_on_equal_networks;
          Alcotest.test_case "latent race checked at baseline" `Quick
            test_latent_race_checked_at_baseline;
          Alcotest.test_case "corruption caught and shrunk" `Quick
            test_cosim_finds_and_shrinks_corruption;
          Alcotest.test_case "shrink synthetic" `Quick test_shrink_synthetic;
          Alcotest.test_case "shrink keeps dependent pairs" `Quick
            test_shrink_keeps_dependent_pairs;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "stimulus spacing clamped" `Quick
            test_stimulus_spacing_clamped;
          Alcotest.test_case "plan counters pinned" `Quick
            test_plan_counters_pinned;
          Alcotest.test_case "perturbation pool" `Quick test_perturbation_pool;
        ] );
      ( "report",
        [
          Alcotest.test_case "no silent skips on table 1" `Quick
            test_report_no_silent_skips;
        ] );
      ("properties", Testlib.qtests [ prop_random_solutions_never_fail ]);
    ]

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
    | Some { Obs.Metrics.value = n; _ } -> n
    | None -> 0
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
        let d = Netlist.Dense.of_graph podium in
        ignore (Codegen.Plan.build d (set [ 2; 3; 4; 5 ]));
        ignore (Codegen.Plan.build d (set [ 6; 8; 9 ])))
  in
  let count name =
    match
      List.find_opt (fun e -> e.Obs.Metrics.name = name) entries
    with
    | Some { Obs.Metrics.value = n; _ } -> n
    | None -> -1
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

(* --- work pinned in closed form ------------------------------------------ *)

let counter_delta name entries =
  match List.find_opt (fun e -> e.Obs.Metrics.name = name) entries with
  | Some { Obs.Metrics.value = n; _ } -> n
  | None -> 0

(* Each simulation settles once per script step.  Per usable script the
   flat side runs E+9 distinct configurations once per solution and each
   of the P tier-3 partitions runs 5 (see Codegen.Cosim.reference); a
   solution with no tier-3 partition never builds the flat side. *)
let expected_settles g p =
  let c = Codegen.Cosim.default_config in
  if p = 0 then 0
  else
    c.Codegen.Cosim.steps * c.Codegen.Cosim.scripts
    * (Graph.edge_count g + 9 + (5 * p))

let test_work_closed_form () =
  let settles_of d =
    let g = d.Designs.Design.network in
    let sol = (Core.Paredown.run g).Core.Paredown.solution in
    let report, entries =
      Obs.Metrics.with_scope (fun () -> Codegen.Verify.check_solution g sol)
    in
    let p = (Codegen.Verify.tally report).Codegen.Verify.cosim_passed in
    check Alcotest.int
      (d.Designs.Design.name ^ ": sim.settles")
      (expected_settles g p)
      (counter_delta "sim.settles" entries);
    counter_delta "sim.settles" entries
  in
  List.iter (fun d -> ignore (settles_of d)) Designs.Library.table1;
  (* E = 40 connections, P = 3 co-simulated partitions *)
  check Alcotest.int "Timed Passage" 7680
    (settles_of Designs.Library.timed_passage)

let table1_reports =
  {|== Ignition Illuminator
partition 0 {3, 4}: equivalent (proven exhaustively)
1 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Night Lamp Controller
partition 0 {3, 4}: equivalent (proven exhaustively)
1 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Entry Gate Detector
partition 0 {2, 3}: equivalent over the full product state space (3 state(s), input sequences up to length 2)
0 proven, 1 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Carpool Alert
partition 0 {2, 3}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 1 cosim-passed, 0 failed, 0 skipped
== Cafeteria Food Alert
partition 0 {3, 4, 5}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 1 cosim-passed, 0 failed, 0 skipped
== Podium Timer 2
partition 0 {2, 3, 4}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 1 cosim-passed, 0 failed, 0 skipped
== Any Window Open Alarm
0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Two Button Light
0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Doorbell Extender 1
0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Doorbell Extender 2
0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Podium Timer 3
partition 0 {2, 3, 4, 5}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {6, 8, 9}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 2 cosim-passed, 0 failed, 0 skipped
== Noise At Night Detector
partition 0 {9, 10}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {5, 6}: equivalent (proven exhaustively)
partition 2 {13, 14}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 3 {11, 12}: differential co-simulation agreed (3 script(s), 15 check(s))
1 proven, 0 bounded, 3 cosim-passed, 0 failed, 0 skipped
== Two-Zone Security
partition 0 {13, 14, 15}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {20, 21, 22, 23}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {26, 27, 28, 29}: differential co-simulation agreed (3 script(s), 15 check(s))
0 proven, 0 bounded, 3 cosim-passed, 0 failed, 0 skipped
== Motion on Property Alert
0 proven, 0 bounded, 0 cosim-passed, 0 failed, 0 skipped
== Timed Passage
partition 0 {9, 10, 15, 16}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 1 {21, 22, 23, 24}: differential co-simulation agreed (3 script(s), 15 check(s))
partition 2 {25, 26}: equivalent (proven exhaustively)
partition 3 {11, 12}: differential co-simulation agreed (3 script(s), 15 check(s))
1 proven, 0 bounded, 3 cosim-passed, 0 failed, 0 skipped
|}

let test_report_golden () =
  let rendered =
    String.concat ""
      (List.map
         (fun d ->
           let g = d.Designs.Design.network in
           let sol = (Core.Paredown.run g).Core.Paredown.solution in
           Format.asprintf "== %s@.%a@." d.Designs.Design.name
             Codegen.Verify.pp_report
             (Codegen.Verify.check_solution g sol))
         Designs.Library.table1)
  in
  check Alcotest.string "pp_report of every Table 1 design" table1_reports
    rendered

(* --- the shared flat side against the per-candidate oracle -------------- *)

(* A deliberately broken rewrite: the merged block additionally drives
   its first output to the negation of its first input on every
   activation. *)
let break_rewrite (rw : Codegen.Replace.t) =
  let g = rw.Codegen.Replace.network in
  match rw.Codegen.Replace.programmable_ids with
  | [] -> None
  | pid :: _ ->
    let d = Graph.descriptor g pid in
    let open Eblock.Descriptor in
    if d.n_inputs = 0 || d.n_outputs = 0 then None
    else begin
      let behavior =
        {
          d.behavior with
          Behavior.Ast.body =
            d.behavior.Behavior.Ast.body
            @ [ Behavior.Ast.(Output (0, Unop (Not, Input 0))) ];
        }
      in
      let broken =
        make ~name:(d.name ^ "-broken") ~kind:d.kind ~n_inputs:d.n_inputs
          ~n_outputs:d.n_outputs ~behavior ~output_init:d.output_init
          ~cost:d.cost ()
      in
      let edges = Graph.fanin g pid @ Graph.fanout g pid in
      let g, _ = Graph.add ~id:pid (Graph.remove_node g pid) broken in
      Some
        (List.fold_left
           (fun g (e : Graph.edge) ->
             Graph.connect g
               ~src:(e.Graph.src.Graph.node, e.Graph.src.Graph.port)
               ~dst:(e.Graph.dst.Graph.node, e.Graph.dst.Graph.port))
           g edges)
    end

(* Every partition's honest rewrite, each followed by its broken twin. *)
let candidates g (sol : Core.Solution.t) =
  List.concat_map
    (fun p ->
      match Codegen.Replace.apply g { Core.Solution.partitions = [ p ] } with
      | exception Codegen.Replace.Replace_error _ -> []
      | rw -> rw.Codegen.Replace.network :: Option.to_list (break_rewrite rw))
    sol.Core.Solution.partitions

(* An outcome (or the exception raised instead) rendered with every
   field of a failure — seed, engine, the shrunk script, the original
   length, the mismatch — plus the codegen.cosim.* metrics it moved. *)
let observed_run f =
  let outcome, entries =
    Obs.Metrics.with_scope (fun () ->
        match f () with
        | Codegen.Cosim.Agreed { scripts; checks } ->
          Printf.sprintf "agreed (%d scripts, %d checks)" scripts checks
        | Codegen.Cosim.Diverged f ->
          Format.asprintf "diverged: %a" Codegen.Cosim.pp_failure f
        | Codegen.Cosim.Inconclusive reason -> "inconclusive: " ^ reason
        | exception e -> "raised " ^ Printexc.to_string e)
  in
  let metrics =
    List.filter_map
      (fun e ->
        if String.starts_with ~prefix:"codegen.cosim." e.Obs.Metrics.name then
          Some
            (Printf.sprintf "%s=%d" e.Obs.Metrics.name e.Obs.Metrics.value)
        else None)
      entries
  in
  String.concat "\n" (outcome :: List.sort compare metrics)

(* Runs every candidate against one shared flat side, in order, and the
   oracle against each candidate alone; returns the first disagreement. *)
let shared_vs_oracle g cands =
  let flat = Codegen.Cosim.reference g in
  List.find_map
    (fun cand ->
      let shared =
        observed_run (fun () -> Codegen.Cosim.run_against ~reference:flat cand)
      in
      let oracle =
        observed_run (fun () -> Cosim_oracle.run ~reference:g cand)
      in
      if shared = oracle then None else Some (shared, oracle))
    cands

let prop_shared_flat_side_matches_oracle =
  QCheck.Test.make
    ~name:"shared flat side = per-candidate oracle, broken rewrites included"
    ~count:15
    (Testlib.network_arbitrary ~max_inner:10 ()) (fun (_, _, g) ->
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      match shared_vs_oracle g (candidates g sol) with
      | None -> true
      | Some (shared, oracle) ->
        QCheck.Test.fail_reportf "shared:@.%s@.oracle:@.%s" shared oracle)

let test_broken_rewrite_matches_oracle () =
  (* both of Podium Timer 3's partitions are co-simulated; their broken
     twins must diverge, and shrink, exactly as the oracle's do *)
  let g = podium in
  let sol = (Core.Paredown.run g).Core.Paredown.solution in
  let cands = candidates g sol in
  check Alcotest.int "two rewrites, two broken twins" 4 (List.length cands);
  (match shared_vs_oracle g cands with
   | None -> ()
   | Some (shared, oracle) ->
     Alcotest.failf "shared:\n%s\noracle:\n%s" shared oracle);
  let flat = Codegen.Cosim.reference g in
  List.iteri
    (fun i cand ->
      match Codegen.Cosim.run_against ~reference:flat cand, i mod 2 with
      | Codegen.Cosim.Agreed _, 0 -> ()
      | Codegen.Cosim.Diverged f, 1 ->
        check Alcotest.bool "counterexample shrunk" true
          (List.length f.Codegen.Cosim.script < f.Codegen.Cosim.original_steps)
      | _, 0 -> Alcotest.failf "honest rewrite %d did not agree" i
      | _ -> Alcotest.failf "broken rewrite %d did not diverge" i)
    cands

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
          Alcotest.test_case "table 1 reports golden" `Quick
            test_report_golden;
        ] );
      ( "work",
        [
          Alcotest.test_case "settles in closed form on table 1" `Quick
            test_work_closed_form;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "broken rewrite matches the oracle" `Quick
            test_broken_rewrite_matches_oracle;
        ] );
      ( "properties",
        Testlib.qtests
          [ prop_random_solutions_never_fail;
            prop_shared_flat_side_matches_oracle ] );
    ]

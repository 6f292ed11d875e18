(* Tests for the greedy aggregation baseline (§4.2, the method PareDown
   replaced). *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module C = Eblock.Catalog

let check = Alcotest.check

let test_chain_clustered () =
  (* a 1-in/1-out chain aggregates into a single cluster *)
  let g, _, _, _ = Testlib.chain [ C.not_gate; C.toggle; C.trip_latch ] in
  let sol = Core.Aggregation.run g in
  check Alcotest.int "one partition" 1 (Core.Solution.programmable_count sol);
  check Alcotest.int "all covered" 3 (Core.Solution.covered_count sol)

let test_nothing_to_do () =
  let g = Designs.Library.any_window_open_alarm.Designs.Design.network in
  let sol = Core.Aggregation.run g in
  check Alcotest.int "no partitions" 0
    (Core.Solution.programmable_count sol)

let test_skips_unplaceable () =
  let g = Designs.Library.two_zone_security.Designs.Design.network in
  let sol = Core.Aggregation.run g in
  Testlib.check_ok "valid" (Core.Solution.check g sol);
  (* the OR3 gates can never be members *)
  check Alcotest.bool "wide gates uncovered" true
    (List.for_all
       (fun id -> Node_id.Set.mem id (Core.Solution.uncovered g sol))
       [ 12; 19; 30 ])

let test_misses_convergence () =
  (* the paper's motivation for PareDown: on the podium timer the greedy
     method cannot exploit reconvergence as well *)
  let pd =
    Core.Solution.total_inner_after Testlib.podium
      (Core.Paredown.run Testlib.podium).Core.Paredown.solution
  in
  let agg =
    Core.Solution.total_inner_after Testlib.podium
      (Core.Aggregation.run Testlib.podium)
  in
  check Alcotest.bool "paredown at least as good on the worked example" true
    (pd <= agg)

let test_multi_shape_config () =
  let config =
    {
      Core.Aggregation.default_config with
      shapes = [ Core.Shape.make ~inputs:4 ~outputs:4 ~cost:1.9 () ];
    }
  in
  let g = Testlib.podium in
  let sol = Core.Aggregation.run ~config g in
  Testlib.check_ok "valid with 4x4" (Core.Solution.check g sol);
  check Alcotest.bool "4x4 merges more than 2x2" true
    (Core.Solution.covered_count sol
     >= Core.Solution.covered_count (Core.Aggregation.run g))

let prop_solutions_valid =
  QCheck.Test.make ~name:"solutions valid on random designs" ~count:120
    (Testlib.network_arbitrary ~max_inner:35 ()) (fun (_, _, g) ->
      let sol = Core.Aggregation.run g in
      Partition_oracle.valid_solution g sol
      && Result.is_ok (Core.Solution.check g sol))

let prop_deterministic =
  QCheck.Test.make ~name:"deterministic" ~count:40
    (Testlib.network_arbitrary ~max_inner:25 ()) (fun (_, _, g) ->
      Core.Aggregation.run g = Core.Aggregation.run g)

let () =
  Alcotest.run "aggregation"
    [
      ( "behaviour",
        [
          Alcotest.test_case "chain clustered" `Quick test_chain_clustered;
          Alcotest.test_case "nothing to do" `Quick test_nothing_to_do;
          Alcotest.test_case "skips unplaceable" `Quick
            test_skips_unplaceable;
          Alcotest.test_case "misses convergence" `Quick
            test_misses_convergence;
          Alcotest.test_case "multi-shape" `Quick test_multi_shape_config;
        ] );
      ( "properties",
        Testlib.qtests [ prop_solutions_valid; prop_deterministic ] );
    ]

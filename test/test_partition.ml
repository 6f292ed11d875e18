(* Unit tests for shapes, partition validity, and solution metrics. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium

(* --- Shapes ------------------------------------------------------------ *)

let test_shape_make () =
  let s = Core.Shape.make ~inputs:3 ~outputs:1 ~cost:1.2 () in
  check Alcotest.int "inputs" 3 s.Core.Shape.inputs;
  check Alcotest.int "outputs" 1 s.Core.Shape.outputs;
  check Alcotest.int "default is 2x2" 2 Core.Shape.default.Core.Shape.inputs;
  (match Core.Shape.make ~inputs:0 ~outputs:1 () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "zero inputs accepted");
  (match Core.Shape.make ~inputs:1 ~outputs:1 ~cost:(-2.) () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "negative cost accepted")

let test_shape_fits () =
  let s = Core.Shape.default in
  check Alcotest.bool "fits" true
    (Core.Shape.fits s ~inputs_used:2 ~outputs_used:2);
  check Alcotest.bool "too many in" false
    (Core.Shape.fits s ~inputs_used:3 ~outputs_used:0);
  check Alcotest.bool "too many out" false
    (Core.Shape.fits s ~inputs_used:0 ~outputs_used:3);
  check Alcotest.bool "empty fits" true
    (Core.Shape.fits s ~inputs_used:0 ~outputs_used:0)

let test_cheapest_fitting () =
  let small = Core.Shape.make ~inputs:2 ~outputs:2 ~cost:1.5 () in
  let big = Core.Shape.make ~inputs:4 ~outputs:4 ~cost:1.9 () in
  let shapes = [ big; small ] in
  check (Alcotest.option Testlib.shape) "prefers cheap" (Some small)
    (Core.Shape.cheapest_fitting shapes ~inputs_used:2 ~outputs_used:1);
  check (Alcotest.option Testlib.shape) "falls back to big" (Some big)
    (Core.Shape.cheapest_fitting shapes ~inputs_used:3 ~outputs_used:1);
  check (Alcotest.option Testlib.shape) "none fit" None
    (Core.Shape.cheapest_fitting shapes ~inputs_used:5 ~outputs_used:1);
  (* equal cost: fewer total pins wins *)
  let tight = Core.Shape.make ~inputs:2 ~outputs:1 ~cost:1.9 () in
  check (Alcotest.option Testlib.shape) "tighter at equal cost" (Some tight)
    (Core.Shape.cheapest_fitting [ big; tight ] ~inputs_used:1
       ~outputs_used:1)

(* --- Partition validity -------------------------------------------------- *)

let shape = Core.Shape.default
let dense = Netlist.Dense.of_graph

let reason members =
  match
    Core.Partition.check (dense podium) (Core.Partition.make ~members ~shape)
  with
  | Ok () -> "ok"
  | Error r -> Format.asprintf "%a" Core.Partition.pp_invalidity r

let test_valid_partitions () =
  check Alcotest.string "first figure-5 partition" "ok"
    (reason (set [ 2; 3; 4; 5 ]));
  check Alcotest.string "second figure-5 partition" "ok"
    (reason (set [ 6; 8; 9 ]));
  check Alcotest.string "exhaustive pieces" "ok" (reason (set [ 7; 8 ]));
  check Alcotest.string "exhaustive pieces 2" "ok" (reason (set [ 6; 9 ]))

let test_invalid_partitions () =
  check Alcotest.bool "singleton" true
    (Testlib.contains (reason (set [ 7 ])) "at least 2");
  check Alcotest.bool "too many outputs" true
    (Testlib.contains (reason (set [ 2; 3; 4; 5; 6; 7; 8; 9 ])) "outputs");
  check Alcotest.bool "sensor not partitionable" true
    (Testlib.contains (reason (set [ 1; 2 ])) "cannot be absorbed");
  check Alcotest.bool "unknown node" true
    (Testlib.contains (reason (set [ 2; 99 ])) "not in the network");
  (* a pin-feasible but non-convex pair needs the doorbell design: the
     path between pulse (2) and prolong (7) runs through the radio hops *)
  let doorbell = Designs.Library.doorbell_extender_2.Designs.Design.network in
  match
    Core.Partition.check (dense doorbell)
      (Core.Partition.make ~members:(set [ 2; 7 ]) ~shape)
  with
  | Error Core.Partition.Not_convex -> ()
  | Error r -> Alcotest.failf "wrong reason: %a" Core.Partition.pp_invalidity r
  | Ok () -> Alcotest.fail "non-convex pair accepted"

let test_comm_not_partitionable () =
  let g = Designs.Library.doorbell_extender_1.Designs.Design.network in
  let p = Core.Partition.make ~members:(set [ 3; 4 ]) ~shape in
  match Core.Partition.check (dense g) p with
  | Error (Core.Partition.Not_partitionable _) -> ()
  | Error r ->
    Alcotest.failf "wrong reason: %a" Core.Partition.pp_invalidity r
  | Ok () -> Alcotest.fail "comm blocks absorbed"

let test_too_many_inputs_reported () =
  let g = Designs.Library.any_window_open_alarm.Designs.Design.network in
  let p = Core.Partition.make ~members:(set [ 5; 6 ]) ~shape in
  match Core.Partition.check (dense g) p with
  | Error (Core.Partition.Too_many_inputs { used = 4; available = 2 }) -> ()
  | Error r ->
    Alcotest.failf "wrong reason: %a" Core.Partition.pp_invalidity r
  | Ok () -> Alcotest.fail "4-input pair accepted"

let test_config_variants () =
  let doorbell = Designs.Library.doorbell_extender_2.Designs.Design.network in
  let pair = set [ 2; 7 ] in
  let relaxed =
    { Core.Partition.default_config with require_convex = false }
  in
  check Alcotest.bool "convexity off accepts {2,7}" true
    (Core.Partition.is_valid ~config:relaxed (dense doorbell)
       (Core.Partition.make ~members:pair ~shape));
  let nets =
    { Core.Partition.default_config with pin_counting = Core.Partition.Per_net }
  in
  (* {3,4} needs 2 input pins per edge, 1 per net *)
  check Alcotest.int "per-net inputs" 1
    (fst (Core.Partition.pins_used ~config:nets (dense podium) (set [ 3; 4 ])));
  check Alcotest.int "per-edge inputs" 2
    (fst (Core.Partition.pins_used (dense podium) (set [ 3; 4 ])))

let test_fits_shape_degenerate () =
  check Alcotest.bool "empty set fits" true
    (Core.Partition.fits_shape (dense podium) shape Node_id.Set.empty);
  check Alcotest.bool "singleton fits" true
    (Core.Partition.fits_shape (dense podium) shape (set [ 7 ]))

(* --- Solutions ----------------------------------------------------------- *)

let figure5_solution =
  Core.Solution.
    {
      partitions =
        [
          Core.Partition.make ~members:(set [ 2; 3; 4; 5 ]) ~shape;
          Core.Partition.make ~members:(set [ 6; 8; 9 ]) ~shape;
        ];
    }

let test_solution_metrics () =
  check Alcotest.int "covered" 7 (Core.Solution.covered_count figure5_solution);
  check Alcotest.int "programmable" 2
    (Core.Solution.programmable_count figure5_solution);
  check Testlib.id_set "uncovered" (set [ 7 ])
    (Core.Solution.uncovered podium figure5_solution);
  check Alcotest.int "total inner after" 3
    (Core.Solution.total_inner_after podium figure5_solution);
  (* 1 predefined + 2 programmable = 1.0 + 2 * 1.5 *)
  check (Alcotest.float 0.001) "cost after" 4.0
    (Core.Solution.total_cost_after podium figure5_solution);
  Testlib.check_ok "valid" (Core.Solution.check podium figure5_solution)

let test_solution_quality_order () =
  let empty = Core.Solution.empty in
  check Alcotest.bool "figure5 beats empty" true
    (Core.Solution.compare_quality podium figure5_solution empty < 0);
  let exhaustive_style =
    Core.Solution.
      {
        partitions =
          [
            Core.Partition.make ~members:(set [ 2; 3; 4; 5 ]) ~shape;
            Core.Partition.make ~members:(set [ 7; 8 ]) ~shape;
            Core.Partition.make ~members:(set [ 6; 9 ]) ~shape;
          ];
      }
  in
  (* equal totals (3 = 3): higher coverage wins *)
  check Alcotest.bool "coverage tie-break" true
    (Core.Solution.compare_quality podium exhaustive_style figure5_solution
     < 0)

let test_solution_check_failures () =
  let overlapping =
    Core.Solution.
      {
        partitions =
          [
            Core.Partition.make ~members:(set [ 2; 3; 4; 5 ]) ~shape;
            Core.Partition.make ~members:(set [ 3; 4; 5 ]) ~shape;
          ];
      }
  in
  (match Core.Solution.check podium overlapping with
   | Error msg ->
     check Alcotest.bool "overlap reported" true
       (Testlib.contains msg "overlap")
   | Ok () -> Alcotest.fail "overlap accepted");
  let invalid_member =
    Core.Solution.
      { partitions = [ Core.Partition.make ~members:(set [ 7 ]) ~shape ] }
  in
  (match Core.Solution.check podium invalid_member with
   | Error msg ->
     check Alcotest.bool "invalid partition reported" true
       (Testlib.contains msg "invalid")
   | Ok () -> Alcotest.fail "singleton accepted")

let () =
  Alcotest.run "partition"
    [
      ( "shape",
        [
          Alcotest.test_case "make" `Quick test_shape_make;
          Alcotest.test_case "fits" `Quick test_shape_fits;
          Alcotest.test_case "cheapest fitting" `Quick test_cheapest_fitting;
        ] );
      ( "validity",
        [
          Alcotest.test_case "valid" `Quick test_valid_partitions;
          Alcotest.test_case "invalid" `Quick test_invalid_partitions;
          Alcotest.test_case "comm blocks" `Quick test_comm_not_partitionable;
          Alcotest.test_case "input overflow detail" `Quick
            test_too_many_inputs_reported;
          Alcotest.test_case "config variants" `Quick test_config_variants;
          Alcotest.test_case "degenerate fits" `Quick
            test_fits_shape_degenerate;
        ] );
      ( "solution",
        [
          Alcotest.test_case "metrics" `Quick test_solution_metrics;
          Alcotest.test_case "quality order" `Quick
            test_solution_quality_order;
          Alcotest.test_case "check failures" `Quick
            test_solution_check_failures;
        ] );
    ]

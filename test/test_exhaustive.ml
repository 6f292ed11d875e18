(* Tests for the exhaustive search: optimality on known designs, the
   coverage tie-break, pruning soundness, deadlines, and the
   never-worse-than-PareDown property. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium

let run ?config ?deadline_s g = Core.Exhaustive.run ?config ?deadline_s g

let totals g r =
  let sol = r.Core.Exhaustive.solution in
  ( Core.Solution.total_inner_after g sol,
    Core.Solution.programmable_count sol )

(* --- Known optima --------------------------------------------------------- *)

let test_podium_optimal () =
  let r = run podium in
  check Alcotest.bool "optimal outcome" true
    (r.Core.Exhaustive.outcome = Core.Exhaustive.Optimal);
  check (Alcotest.pair Alcotest.int Alcotest.int) "3 total, 3 programmable"
    (3, 3) (totals podium r);
  check Alcotest.int "all 8 covered" 8
    (Core.Solution.covered_count r.Core.Exhaustive.solution);
  (* the specific optimum: {2,3,4,5}, {6,9}, {7,8} *)
  let members =
    List.map
      (fun p -> p.Core.Partition.members)
      r.Core.Exhaustive.solution.Core.Solution.partitions
    |> List.sort (fun a b ->
           compare (Node_id.Set.elements a) (Node_id.Set.elements b))
  in
  check (Alcotest.list Testlib.id_set) "partition sets"
    [ set [ 2; 3; 4; 5 ]; set [ 6; 9 ]; set [ 7; 8 ] ]
    members

let test_small_library_optima () =
  (* Table 1's exhaustive column for every design we can afford *)
  let cases =
    [
      ("Ignition Illuminator", (1, 1));
      ("Night Lamp Controller", (1, 1));
      ("Entry Gate Detector", (1, 1));
      ("Carpool Alert", (1, 1));
      ("Cafeteria Food Alert", (1, 1));
      ("Podium Timer 2", (1, 1));
      ("Any Window Open Alarm", (3, 0));
      ("Two Button Light", (3, 0));
      ("Doorbell Extender 1", (5, 0));
      ("Doorbell Extender 2", (6, 0));
      ("Podium Timer 3", (3, 3));
    ]
  in
  List.iter
    (fun (name, want) ->
      match Designs.Library.find name with
      | None -> Alcotest.failf "design %s missing" name
      | Some d ->
        let g = d.Designs.Design.network in
        check (Alcotest.pair Alcotest.int Alcotest.int) name want
          (totals g (run g)))
    cases

let test_chain_merges_fully () =
  (* a 1-in/1-out chain of any length fits one programmable block *)
  let g, _, _, _ =
    Testlib.chain
      Eblock.Catalog.
        [ not_gate; toggle; trip_latch; not_gate; delay ~ticks:3 ]
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "5-chain -> 1 block" (1, 1)
    (totals g (run g))

(* --- Cost objective (future work, §6) ---------------------------------------- *)

(* a shape library where merging everything is block-optimal but not
   cost-optimal: the 4x4 hosts all 8 podium blocks yet costs more than
   three small blocks *)
let contested_shapes =
  [
    Core.Shape.make ~inputs:2 ~outputs:2 ~cost:1.5 ();
    Core.Shape.make ~inputs:4 ~outputs:4 ~cost:5.0 ();
  ]

let test_objectives_disagree () =
  let run objective =
    (Core.Exhaustive.run
       ~config:
         { Core.Exhaustive.default_config with shapes = contested_shapes;
           objective }
       podium)
      .Core.Exhaustive.solution
  in
  let by_blocks = run Core.Exhaustive.Fewest_blocks in
  let by_cost = run Core.Exhaustive.Lowest_cost in
  check Alcotest.int "block objective: one big partition" 1
    (Core.Solution.total_inner_after podium by_blocks);
  check (Alcotest.float 0.001) "its cost is the 4x4's" 5.0
    (Core.Solution.total_cost_after podium by_blocks);
  (* cheapest: the Figure-5 style cover — two 2x2 blocks plus block 7
     left pre-defined (2 * 1.5 + 1.0), beating both the 4x4 (5.0) and a
     three-2x2 full cover (4.5) *)
  check (Alcotest.float 0.001) "cost objective: two 2x2s + one pre-defined"
    4.0
    (Core.Solution.total_cost_after podium by_cost);
  check Alcotest.int "at the price of more blocks" 3
    (Core.Solution.total_inner_after podium by_cost);
  Testlib.check_ok "both valid" (Core.Solution.check podium by_blocks);
  Testlib.check_ok "both valid" (Core.Solution.check podium by_cost)

let test_cost_pruning_sound () =
  let rng = Prng.create 31 in
  for _ = 1 to 8 do
    let inner = 3 + Prng.int rng 4 in
    let g = Randgen.Generator.generate ~rng:(Prng.split rng) ~inner () in
    let run bound_pruning =
      Core.Exhaustive.run
        ~config:
          {
            Core.Exhaustive.default_config with
            shapes = contested_shapes;
            objective = Core.Exhaustive.Lowest_cost;
            bound_pruning;
          }
        g
    in
    check (Alcotest.float 0.001) "same optimal cost"
      (Core.Solution.total_cost_after g (run false).Core.Exhaustive.solution)
      (Core.Solution.total_cost_after g (run true).Core.Exhaustive.solution)
  done

(* --- Deadline -------------------------------------------------------------- *)

let test_deadline () =
  let g =
    Randgen.Generator.generate ~rng:(Prng.create 99) ~inner:20 ()
  in
  let r = run ~deadline_s:0.05 g in
  check Alcotest.bool "times out" true
    (r.Core.Exhaustive.outcome = Core.Exhaustive.Timed_out);
  Testlib.check_ok "best-so-far still valid"
    (Core.Solution.check g r.Core.Exhaustive.solution)

(* --- Pruning soundness ------------------------------------------------------ *)

let test_bound_pruning_preserves_optimum () =
  let rng = Prng.create 5 in
  for _ = 1 to 10 do
    let inner = 3 + Prng.int rng 5 in
    let g = Randgen.Generator.generate ~rng:(Prng.split rng) ~inner () in
    let pruned = run g in
    let unpruned =
      run
        ~config:
          { Core.Exhaustive.default_config with bound_pruning = false }
        g
    in
    check Alcotest.int "same optimal total"
      (Core.Solution.total_inner_after g unpruned.Core.Exhaustive.solution)
      (Core.Solution.total_inner_after g pruned.Core.Exhaustive.solution);
    check Alcotest.int "same coverage"
      (Core.Solution.covered_count unpruned.Core.Exhaustive.solution)
      (Core.Solution.covered_count pruned.Core.Exhaustive.solution);
    check Alcotest.bool "pruning explores no more nodes" true
      (pruned.Core.Exhaustive.nodes_explored
       <= unpruned.Core.Exhaustive.nodes_explored)
  done

(* --- The feasibility cuts against the uncut search ---------------------------- *)

(* Three shapes of different costs: a pin-hungry design can still fit the
   4x4, and the cost objective has a real choice to make. *)
let three_shapes =
  [
    Core.Shape.make ~inputs:2 ~outputs:2 ~cost:1.5 ();
    Core.Shape.make ~inputs:3 ~outputs:1 ~cost:2.0 ();
    Core.Shape.make ~inputs:4 ~outputs:4 ~cost:5.0 ();
  ]

let oracle_configs =
  let d = Core.Exhaustive.default_config in
  let pc = Core.Partition.default_config in
  [
    ("default", d);
    ( "lowest cost, three shapes",
      { d with shapes = three_shapes; objective = Core.Exhaustive.Lowest_cost }
    );
    ("three shapes", { d with shapes = three_shapes });
    ( "not convex",
      { d with partition_config = { pc with require_convex = false } } );
    ( "per net",
      {
        d with
        partition_config = { pc with pin_counting = Core.Partition.Per_net };
      } );
    ("no bound pruning", { d with bound_pruning = false });
  ]

(* The cuts drop only subtrees whose every leaf is invalid, so the
   library meets the oracle's valid leaves in the oracle's order: the
   same partitions in the same order, with the same shapes, on a tree no
   larger; with [bound_pruning] off it is the oracle's tree exactly. *)
let same_as_oracle g (name, config) =
  let lib = Core.Exhaustive.run ~config g in
  let ora = Exhaustive_oracle.run ~config g in
  let same_partition (p : Core.Partition.t) (q : Core.Partition.t) =
    Node_id.Set.equal p.members q.members && Core.Shape.equal p.shape q.shape
  in
  let fail what =
    QCheck.Test.fail_reportf "%s: %s (nodes %d vs oracle %d, leaves %d vs %d)"
      name what lib.Core.Exhaustive.nodes_explored
      ora.Exhaustive_oracle.nodes_explored lib.Core.Exhaustive.leaves_checked
      ora.Exhaustive_oracle.leaves_checked
  in
  let lp = lib.Core.Exhaustive.solution.Core.Solution.partitions in
  let op = ora.Exhaustive_oracle.solution.Core.Solution.partitions in
  if lib.Core.Exhaustive.outcome <> Core.Exhaustive.Optimal then
    fail "not optimal"
  else if
    List.compare_lengths lp op <> 0 || not (List.for_all2 same_partition lp op)
  then fail "another solution"
  else if config.Core.Exhaustive.bound_pruning then
    (lib.Core.Exhaustive.nodes_explored <= ora.Exhaustive_oracle.nodes_explored
    && lib.Core.Exhaustive.leaves_checked
       <= ora.Exhaustive_oracle.leaves_checked)
    || fail "a larger tree"
  else
    (lib.Core.Exhaustive.nodes_explored = ora.Exhaustive_oracle.nodes_explored
    && lib.Core.Exhaustive.leaves_checked
       = ora.Exhaustive_oracle.leaves_checked)
    || fail "another tree"

let prop_matches_oracle =
  QCheck.Test.make ~name:"same solution as the uncut search" ~count:150
    (Testlib.network_arbitrary ~max_inner:9 ()) (fun (_, _, g) ->
      List.for_all (same_as_oracle g) oracle_configs)

(* --- Exponential growth (the paper's §4.1 observation) ----------------------- *)

let test_search_space_grows () =
  let leaves n =
    let g = Randgen.Generator.worst_case ~inner:n in
    (run
       ~config:{ Core.Exhaustive.default_config with bound_pruning = false }
       g)
      .Core.Exhaustive.leaves_checked
  in
  let l4 = leaves 4 and l6 = leaves 6 in
  check Alcotest.bool "leaf count explodes" true (l6 > 10 * l4)

(* --- Properties --------------------------------------------------------------- *)

let prop_never_worse_than_paredown =
  QCheck.Test.make ~name:"optimal <= PareDown on small designs" ~count:40
    (Testlib.network_arbitrary ~max_inner:8 ()) (fun (_, _, g) ->
      let exh = (run g).Core.Exhaustive.solution in
      let pd = (Core.Paredown.run g).Core.Paredown.solution in
      Core.Solution.total_inner_after g exh
      <= Core.Solution.total_inner_after g pd)

let prop_never_worse_than_aggregation =
  QCheck.Test.make ~name:"optimal <= aggregation on small designs" ~count:40
    (Testlib.network_arbitrary ~max_inner:8 ()) (fun (_, _, g) ->
      let exh = (run g).Core.Exhaustive.solution in
      let agg = Core.Aggregation.run g in
      Core.Solution.total_inner_after g exh
      <= Core.Solution.total_inner_after g agg)

let prop_solutions_valid =
  QCheck.Test.make ~name:"solutions valid" ~count:40
    (Testlib.network_arbitrary ~max_inner:8 ()) (fun (_, _, g) ->
      let sol = (run g).Core.Exhaustive.solution in
      Partition_oracle.valid_solution g sol
      && Result.is_ok (Core.Solution.check g sol))

let () =
  Alcotest.run "exhaustive"
    [
      ( "optima",
        [
          Alcotest.test_case "podium timer 3" `Quick test_podium_optimal;
          Alcotest.test_case "library designs" `Slow
            test_small_library_optima;
          Alcotest.test_case "chain merges fully" `Quick
            test_chain_merges_fully;
        ] );
      ( "cost objective",
        [
          Alcotest.test_case "objectives disagree" `Quick
            test_objectives_disagree;
          Alcotest.test_case "cost pruning sound" `Quick
            test_cost_pruning_sound;
        ] );
      ( "budget",
        [ Alcotest.test_case "deadline" `Quick test_deadline ] );
      ( "pruning",
        [
          Alcotest.test_case "bound pruning sound" `Quick
            test_bound_pruning_preserves_optimum;
          Alcotest.test_case "search space grows" `Quick
            test_search_space_grows;
        ] );
      ( "properties",
        Testlib.qtests
          [
            prop_never_worse_than_paredown;
            prop_never_worse_than_aggregation; prop_solutions_valid;
            prop_matches_oracle;
          ] );
    ]

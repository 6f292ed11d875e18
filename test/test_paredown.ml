(* Tests for the PareDown decomposition heuristic: the full Figure 5
   trace, golden results for every library design, the worst-case
   complexity formula, configuration variants, and validity properties
   over random designs. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium

let solution_of g = (Core.Paredown.run g).Core.Paredown.solution

let totals g =
  let sol = solution_of g in
  ( Core.Solution.total_inner_after g sol,
    Core.Solution.programmable_count sol )

(* --- Figure 5, step by step ------------------------------------------- *)

let test_figure5_trace () =
  let _, events = Obs.Journal.record (fun () -> Core.Paredown.run podium) in
  let pick f = List.filter_map f events in
  (* the published border ranks of the initial candidate *)
  check
    (Alcotest.option
       (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int)))
    "initial ranks (2:+1, 8:+1, 9:0)"
    (Some [ (2, 1); (8, 1); (9, 0) ])
    (List.find_map
       (function Obs.Journal.Ranked { ranks } -> Some ranks | _ -> None)
       events);
  (* the published removal order, including the second candidate *)
  check (Alcotest.list Alcotest.int) "removal order"
    [ 9; 8; 7; 6; 7 ]
    (pick (function Obs.Journal.Removed { node; _ } -> Some node | _ -> None));
  (* the published partitions, in order *)
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "accepted partitions"
    [ [ 2; 3; 4; 5 ]; [ 6; 8; 9 ] ]
    (pick (function
      | Obs.Journal.Accepted { members; _ } -> Some members
      | _ -> None));
  (* block 7 fits alone but stays pre-defined *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "left single" [ (7, "left_single") ]
    (pick (function
      | Obs.Journal.Rejected { node; reason } -> Some (node, reason)
      | _ -> None))

let test_figure5_result () =
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "8 inner blocks -> 3 (2 programmable)" (3, 2) (totals podium)

(* The decision trace is the journal, and it stays off unless asked
   for: a plain run turns nothing on, and [record] turns off again the
   journal it installed for its call. *)
let test_trace_off_by_default () =
  let off what = check Alcotest.bool what false (Obs.Journal.enabled ()) in
  off "off before a run";
  ignore (Core.Paredown.run podium);
  off "off after a plain run";
  ignore (Obs.Journal.record (fun () -> Core.Paredown.run podium));
  off "off after a recorded run";
  check Alcotest.bool "nothing captured" false (Obs.Journal.capturing ());
  check Alcotest.bool "nothing installed" true
    (Option.is_none (Obs.Journal.uninstall ()))

(* --- Rank and removal choice, on the scan oracle -------------------------- *)

let test_rank_values () =
  let candidate = set [ 2; 3; 4; 5; 6; 7; 8; 9 ] in
  check Alcotest.int "rank 9" 0 (Paredown_oracle.rank podium candidate 9);
  check Alcotest.int "rank 8" 1 (Paredown_oracle.rank podium candidate 8);
  check Alcotest.int "rank 2" 1 (Paredown_oracle.rank podium candidate 2);
  (* after removing 9 and 8: 6 and 7 become borders at rank -1 *)
  let candidate = set [ 2; 3; 4; 5; 6; 7 ] in
  check Alcotest.int "rank 6" (-1) (Paredown_oracle.rank podium candidate 6);
  check Alcotest.int "rank 7" (-1) (Paredown_oracle.rank podium candidate 7)

let test_removal_choice () =
  check (Alcotest.option Alcotest.int) "initial victim" (Some 9)
    (Paredown_oracle.removal_choice podium (set [ 2; 3; 4; 5; 6; 7; 8; 9 ]));
  check (Alcotest.option Alcotest.int) "indegree tie-break picks 8" (Some 8)
    (Paredown_oracle.removal_choice podium (set [ 2; 3; 4; 5; 6; 7; 8 ]));
  check (Alcotest.option Alcotest.int) "id tie-break picks 7" (Some 7)
    (Paredown_oracle.removal_choice podium (set [ 2; 3; 4; 5; 6; 7 ]));
  check (Alcotest.option Alcotest.int) "empty candidate" None
    (Paredown_oracle.removal_choice podium Node_id.Set.empty)

(* --- Golden results for the design library ----------------------------- *)

(* Measured with this implementation; see EXPERIMENTS.md for the
   paper-vs-measured discussion (Two-Zone Security and Timed Passage are
   within one block of the paper's heuristic results). *)
let expected =
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
    ("Podium Timer 3", (3, 2));
    ("Noise At Night Detector", (6, 4));
    ("Two-Zone Security", (11, 3));
    ("Motion on Property Alert", (19, 0));
    ("Timed Passage", (15, 4));
  ]

let test_library_golden () =
  List.iter
    (fun (name, want) ->
      match Designs.Library.find name with
      | None -> Alcotest.failf "design %s missing" name
      | Some d ->
        check (Alcotest.pair Alcotest.int Alcotest.int) name want
          (totals d.Designs.Design.network))
    expected

let test_library_solutions_valid () =
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let sol = solution_of g in
      Testlib.check_ok d.Designs.Design.name (Core.Solution.check g sol);
      check Alcotest.bool
        (d.Designs.Design.name ^ " (set-based check)")
        true
        (Partition_oracle.valid_solution g sol))
    Designs.Library.all

(* Optimal solutions on the two designs past Table 1's exhaustive
   cutoff, one block under PareDown's rows above, pinned as literal
   partitions (EXPERIMENTS.md note (b)).  Each witness reaches its
   total, and an exhaustive search with no deadline certifies that no
   solution does better: its own optimum has the same total (on Timed
   Passage with a fifth partition, 14/5, which the coverage tie-break
   prefers over the witness's 14/4). *)
let witnesses =
  [
    ( "Two-Zone Security",
      [ [ 13; 14; 15; 16 ]; [ 20; 21; 22; 23 ]; [ 26; 27; 28; 29 ] ],
      (10, 3),
      (10, 3) );
    ( "Timed Passage",
      [ [ 9; 10; 11; 12 ]; [ 15; 16; 17 ]; [ 21; 22; 23; 24 ]; [ 25; 26 ] ],
      (14, 4),
      (14, 5) );
  ]

let test_library_witnesses () =
  List.iter
    (fun (name, partitions, want, optimum) ->
      let g =
        match Designs.Library.find name with
        | Some d -> d.Designs.Design.network
        | None -> Alcotest.failf "design %s missing" name
      in
      let sol =
        {
          Core.Solution.partitions =
            List.map
              (fun members ->
                Core.Partition.make ~members:(set members)
                  ~shape:Core.Shape.default)
              partitions;
        }
      in
      Testlib.check_ok name (Core.Solution.check g sol);
      check Alcotest.bool (name ^ " (set-based check)") true
        (Partition_oracle.valid_solution g sol);
      check (Alcotest.pair Alcotest.int Alcotest.int) name want
        ( Core.Solution.total_inner_after g sol,
          Core.Solution.programmable_count sol );
      let r = Core.Exhaustive.run g in
      check Alcotest.bool (name ^ " search finished") true
        (r.Core.Exhaustive.outcome = Core.Exhaustive.Optimal);
      check (Alcotest.pair Alcotest.int Alcotest.int) (name ^ " optimum")
        optimum
        ( Core.Solution.total_inner_after g r.Core.Exhaustive.solution,
          Core.Solution.programmable_count r.Core.Exhaustive.solution ))
    witnesses

(* --- Worst case (§4.2) -------------------------------------------------- *)

let test_worst_case_quadratic () =
  List.iter
    (fun n ->
      let g = Randgen.Generator.worst_case ~inner:n in
      let r = Core.Paredown.run g in
      (* n candidates; candidate k performs k fit checks (one per member
         removed or isolated): sum 1..n = n(n+1)/2 *)
      check Alcotest.int
        (Printf.sprintf "fit checks for n=%d" n)
        (n * (n + 1) / 2)
        r.Core.Paredown.stats.Core.Paredown.fit_checks;
      check Alcotest.int "outer iterations" n
        r.Core.Paredown.stats.Core.Paredown.outer_iterations;
      check Alcotest.int "nothing combined" 0
        (Core.Solution.programmable_count r.Core.Paredown.solution))
    [ 1; 2; 5; 10; 25 ]

(* --- Configuration variants --------------------------------------------- *)

let test_unplaceable_block_set_aside () =
  (* a 3-input gate cannot fit a 2x2 block even alone, so its candidate
     pares down to nothing; PareDown sets it aside and still combines
     the chain behind it *)
  let g =
    let g, s1 = Graph.add Graph.empty Eblock.Catalog.button in
    let g, s2 = Graph.add g Eblock.Catalog.button in
    let g, s3 = Graph.add g Eblock.Catalog.button in
    let g, wide = Graph.add g Eblock.Catalog.or3 in
    let g, chain1 = Graph.add g Eblock.Catalog.not_gate in
    let g, chain2 = Graph.add g Eblock.Catalog.toggle in
    let g, l1 = Graph.add g Eblock.Catalog.led in
    let g, l2 = Graph.add g Eblock.Catalog.led in
    let g = Graph.connect g ~src:(s1, 0) ~dst:(wide, 0) in
    let g = Graph.connect g ~src:(s2, 0) ~dst:(wide, 1) in
    let g = Graph.connect g ~src:(s3, 0) ~dst:(wide, 2) in
    let g = Graph.connect g ~src:(wide, 0) ~dst:(l1, 0) in
    let g = Graph.connect g ~src:(s1, 0) ~dst:(chain1, 0) in
    let g = Graph.connect g ~src:(chain1, 0) ~dst:(chain2, 0) in
    Graph.connect g ~src:(chain2, 0) ~dst:(l2, 0)
  in
  let solution = (Core.Paredown.run g).Core.Paredown.solution in
  check Alcotest.int "the chain combines" 1
    (Core.Solution.programmable_count solution)

let test_multi_shape () =
  (* with a 4x4 shape available, the whole podium inner set needs only
     1 input and 3 outputs: one big block *)
  let config =
    {
      Core.Paredown.default_config with
      shapes =
        [ Core.Shape.default; Core.Shape.make ~inputs:4 ~outputs:4 ~cost:1.9 () ];
    }
  in
  let r = Core.Paredown.run ~config podium in
  let sol = r.Core.Paredown.solution in
  check Alcotest.int "single partition" 1
    (Core.Solution.programmable_count sol);
  check Alcotest.int "everything covered" 8 (Core.Solution.covered_count sol);
  (* and it must be hosted on the 4x4, not the 2x2 *)
  (match sol.Core.Solution.partitions with
   | [ p ] -> check Alcotest.int "hosted on 4x4" 4 p.Core.Partition.shape.Core.Shape.inputs
   | _ -> Alcotest.fail "expected one partition")

let test_no_convexity_config () =
  let config =
    {
      Core.Paredown.default_config with
      partition_config =
        { Core.Partition.default_config with require_convex = false };
    }
  in
  let g = Designs.Library.doorbell_extender_2.Designs.Design.network in
  let sol = (Core.Paredown.run ~config g).Core.Paredown.solution in
  (* without convexity the pulse/prolong pair is merged, creating a loop
     after replacement — which is exactly why the default forbids it *)
  check Alcotest.int "pair found" 1 (Core.Solution.programmable_count sol);
  check Alcotest.bool "but invalid under the full check" true
    (match Core.Solution.check g sol with Error _ -> true | Ok () -> false)

let test_tie_break_orders_all_valid () =
  let orders =
    Core.Paredown.
      [
        [];
        [ Greatest_indegree ];
        [ Greatest_outdegree; Greatest_indegree ];
        [ Highest_level ];
        [ Highest_id; Highest_level; Greatest_outdegree; Greatest_indegree ];
      ]
  in
  List.iter
    (fun tie_breaks ->
      let config = { Core.Paredown.default_config with tie_breaks } in
      List.iter
        (fun d ->
          let g = d.Designs.Design.network in
          let sol = (Core.Paredown.run ~config g).Core.Paredown.solution in
          Testlib.check_ok d.Designs.Design.name (Core.Solution.check g sol))
        Designs.Library.table1)
    orders

(* --- The victim sequence, checked through the journal -------------------- *)

(* Every tie-break order the ablation and the tests use, a multi-shape
   config, and both pin-counting modes. *)
let victim_configs =
  let open Core.Paredown in
  let base = default_config in
  let per_net =
    { Core.Partition.default_config with pin_counting = Core.Partition.Per_net }
  in
  let shapes =
    [ Core.Shape.default; Core.Shape.make ~inputs:4 ~outputs:4 ~cost:1.8 () ]
  in
  [
    ("paper", base);
    ("no tie-breaks", { base with tie_breaks = [] });
    ("indegree", { base with tie_breaks = [ Greatest_indegree ] });
    ( "outdegree, indegree",
      { base with tie_breaks = [ Greatest_outdegree; Greatest_indegree ] } );
    ("level", { base with tie_breaks = [ Highest_level ] });
    ( "id, level, outdegree, indegree",
      {
        base with
        tie_breaks =
          [ Highest_id; Highest_level; Greatest_outdegree; Greatest_indegree ];
      } );
    ( "no convexity",
      {
        base with
        partition_config =
          { Core.Partition.default_config with require_convex = false };
      } );
    ("per-net pins", { base with partition_config = per_net });
    ("shapes {2x2, 4x4}", { base with shapes });
    ( "per-net pins, shapes {2x2, 4x4}",
      { base with partition_config = per_net; shapes } );
  ]

let same_partitions s1 s2 =
  List.equal
    (fun p1 p2 ->
      Node_id.Set.equal p1.Core.Partition.members p2.Core.Partition.members
      && p1.Core.Partition.shape = p2.Core.Partition.shape)
    s1.Core.Solution.partitions s2.Core.Solution.partitions

(* Replays a journaled run against both oracles of test/paredown_oracle.ml
   and returns the first disagreement, if any.  The candidate is rebuilt
   from each candidate_started's members minus the nodes removed since.
   Every fit check must report the set-based pin counts; every ranked
   list must be the set-based border blocks and ranks; every removed
   node, with its rank and pin deltas, must be the set-based minimum by
   (rank, tie_key), and the moved scan must pick it too.  The plain run
   must find what the journaled one found. *)
let replay_victims ~config g =
  let module Dense = Netlist.Dense in
  let levels = Graph.levels g in
  let d = Dense.of_graph g in
  let keys = Paredown_oracle.tie_keys ~config g d in
  let partition_config = config.Core.Paredown.partition_config in
  let pins = Partition_oracle.pins_used ~config:partition_config g in
  let show_ranks ranks =
    String.concat ", "
      (List.map (fun (b, r) -> Printf.sprintf "%d:%+d" b r) ranks)
  in
  let result, events =
    Obs.Journal.record (fun () -> Core.Paredown.run ~config g)
  in
  let rec go candidate = function
    | [] -> Ok ()
    | event :: rest -> (
      match event with
      | Obs.Journal.Candidate_started { members } -> go (set members) rest
      | Obs.Journal.Fit_check { inputs_used; outputs_used; _ } ->
        let ins, outs = pins candidate in
        if (inputs_used, outputs_used) = (ins, outs) then go candidate rest
        else
          Error
            (Printf.sprintf "fit check %d/%d, oracle %d/%d" inputs_used
               outputs_used ins outs)
      | Obs.Journal.Ranked { ranks } ->
        let want = Paredown_oracle.border_ranks ~config g candidate in
        if ranks = want then go candidate rest
        else
          Error
            (Printf.sprintf "ranked [%s], oracle [%s]" (show_ranks ranks)
               (show_ranks want))
      | Obs.Journal.Removed { node; rank; d_in; d_out } ->
        let want = Paredown_oracle.victim ~config ~levels g candidate in
        let scan =
          Paredown_oracle.choose_victim ~config ~keys d
            (Dense.set_of_ids d candidate)
          |> Option.map (Dense.node_id d)
        in
        let without = Node_id.Set.remove node candidate in
        let deltas =
          match partition_config.Core.Partition.pin_counting with
          | Core.Partition.Per_edge ->
            let i0, o0 = pins candidate and i1, o1 = pins without in
            (Some (i1 - i0), Some (o1 - o0))
          | Core.Partition.Per_net -> (None, None)
        in
        if want <> Some (node, rank) then
          Error
            (Printf.sprintf "removed %d at %+d, oracle %s" node rank
               (match want with
                | Some (b, r) -> Printf.sprintf "%d at %+d" b r
                | None -> "none"))
        else if scan <> Some node then
          Error
            (Printf.sprintf "removed %d, the scan picks %s" node
               (Option.fold ~none:"none" ~some:string_of_int scan))
        else if (d_in, d_out) <> deltas then
          Error (Printf.sprintf "removed %d with other pin deltas" node)
        else go without rest
      | _ -> go candidate rest)
  in
  match go Node_id.Set.empty events with
  | Error _ as e -> e
  | Ok () as ok ->
    let plain = (Core.Paredown.run ~config g).Core.Paredown.solution in
    if same_partitions plain result.Core.Paredown.solution then ok
    else Error "the plain run found another solution"

let check_victims what ~config g =
  match replay_victims ~config g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

let victims_arbitrary ~max_inner =
  QCheck.pair
    (Testlib.network_arbitrary ~max_inner ())
    (QCheck.make
       ~print:(fun i -> fst (List.nth victim_configs i))
       QCheck.Gen.(int_bound (List.length victim_configs - 1)))

let prop_victims ~count ~max_inner =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "victims agree with the oracles (<= %d inner)" max_inner)
    ~count (victims_arbitrary ~max_inner)
    (fun ((_, _, g), i) ->
      match replay_victims ~config:(snd (List.nth victim_configs i)) g with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

(* The worst-case family and the parallel-edge design (splitter2 node 2
   drives both inputs of xor2 node 4) under every config. *)
let test_victims_fixed () =
  let designs =
    ( "Randgen inner 10 seed 430208",
      Randgen.Generator.generate ~rng:(Prng.create 430208) ~inner:10 () )
    :: List.map
         (fun n ->
           ( Printf.sprintf "worst case %d" n,
             Randgen.Generator.worst_case ~inner:n ))
         [ 1; 2; 5; 10; 25; 40 ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (label, config) -> check_victims (name ^ ", " ^ label) ~config g)
        victim_configs)
    designs

(* --- Properties ----------------------------------------------------------- *)

let prop_solution_valid =
  QCheck.Test.make ~name:"solutions valid on random designs" ~count:150
    (Testlib.network_arbitrary ~max_inner:40 ()) (fun (_, _, g) ->
      let sol = solution_of g in
      Partition_oracle.valid_solution g sol
      && Result.is_ok (Core.Solution.check g sol))

let prop_deterministic =
  QCheck.Test.make ~name:"deterministic" ~count:50
    (Testlib.network_arbitrary ~max_inner:30 ()) (fun (_, _, g) ->
      let r1 = solution_of g and r2 = solution_of g in
      List.equal
        (fun p1 p2 ->
          Node_id.Set.equal p1.Core.Partition.members p2.Core.Partition.members)
        r1.Core.Solution.partitions r2.Core.Solution.partitions)

let prop_never_worse_than_nothing =
  QCheck.Test.make ~name:"total never exceeds the original inner count"
    ~count:100 (Testlib.network_arbitrary ~max_inner:40 ())
    (fun (_, _, g) ->
      Core.Solution.total_inner_after g (solution_of g)
      <= Graph.inner_count g)

let prop_rank_matches_direct_recount =
  (* the scan oracle's rank on the Dense view must agree with
     recomputing the io counts from scratch on sets, under both
     pin-counting modes *)
  QCheck.Test.make ~name:"rank = io(P \\ b) - io(P)" ~count:60
    (QCheck.pair (Testlib.network_arbitrary ~max_inner:20 ())
       QCheck.(int_bound 10_000))
    (fun ((_, _, g), salt) ->
      let eligible = Graph.partitionable_nodes g in
      QCheck.assume (List.length eligible >= 2);
      let candidate =
        Node_id.Set.of_list
          (List.filteri (fun i _ -> (i + salt) mod 3 <> 0) eligible)
      in
      QCheck.assume (not (Node_id.Set.is_empty candidate));
      List.for_all
        (fun mode ->
          let partition_config =
            { Core.Partition.default_config with pin_counting = mode }
          in
          let config =
            { Core.Paredown.default_config with partition_config }
          in
          Node_id.Set.for_all
            (fun b ->
              let direct =
                Partition_oracle.io_used ~config:partition_config g
                  (Node_id.Set.remove b candidate)
                - Partition_oracle.io_used ~config:partition_config g
                    candidate
              in
              Paredown_oracle.rank ~config g candidate b = direct)
            candidate)
        [ Core.Partition.Per_edge; Core.Partition.Per_net ])

let prop_partitions_at_least_two =
  QCheck.Test.make ~name:"every partition has >= 2 members" ~count:100
    (Testlib.network_arbitrary ~max_inner:30 ()) (fun (_, _, g) ->
      List.for_all
        (fun p -> Node_id.Set.cardinal p.Core.Partition.members >= 2)
        (solution_of g).Core.Solution.partitions)

let () =
  Alcotest.run "paredown"
    [
      ( "figure5",
        [
          Alcotest.test_case "trace" `Quick test_figure5_trace;
          Alcotest.test_case "result" `Quick test_figure5_result;
          Alcotest.test_case "trace off by default" `Quick
            test_trace_off_by_default;
        ] );
      ( "rank",
        [
          Alcotest.test_case "values" `Quick test_rank_values;
          Alcotest.test_case "removal choice" `Quick test_removal_choice;
        ] );
      ( "library",
        [
          Alcotest.test_case "golden results" `Quick test_library_golden;
          Alcotest.test_case "best known witnesses" `Quick
            test_library_witnesses;
          Alcotest.test_case "solutions valid" `Quick
            test_library_solutions_valid;
        ] );
      ( "complexity",
        [
          Alcotest.test_case "worst case n(n+1)/2" `Quick
            test_worst_case_quadratic;
        ] );
      ( "config",
        [
          Alcotest.test_case "unplaceable block set aside" `Quick
            test_unplaceable_block_set_aside;
          Alcotest.test_case "multiple shapes" `Quick test_multi_shape;
          Alcotest.test_case "convexity off" `Quick test_no_convexity_config;
          Alcotest.test_case "tie-break orders" `Quick
            test_tie_break_orders_all_valid;
        ] );
      ( "victims",
        Alcotest.test_case "worst case and parallel edges" `Quick
          test_victims_fixed
        :: Testlib.qtests
             [
               prop_victims ~count:150 ~max_inner:30;
               prop_victims ~count:10 ~max_inner:100;
             ] );
      ( "properties",
        Testlib.qtests
          [
            prop_solution_valid; prop_deterministic;
            prop_never_worse_than_nothing; prop_partitions_at_least_two;
            prop_rank_matches_direct_recount;
          ] );
    ]

(* The Dense view's semantics are defined by the set-based Cut_oracle;
   these properties pin the agreement on random graphs (acyclic, and
   with one back edge) and random member subsets, then check that the
   incremental accounting (deltas, exhaustive bin counts) reproduces
   the from-scratch numbers and that the dense exhaustive search still
   returns Table 1's optima. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense
module Cut = Cut_oracle

let check = Alcotest.check

(* A random network plus a random subset of its nodes (members are
   drawn from all nodes, not just partitionable ones: the Cut
   functions are defined on any subset). *)
let subset_gen =
  QCheck.Gen.(
    Testlib.network_gen ~max_inner:20 () >>= fun (inner, seed, g) ->
    let ids = Array.of_list (Graph.node_ids g) in
    int_range 0 (Array.length ids) >>= fun k ->
    shuffle_a ids >|= fun () ->
    let members =
      Array.to_list (Array.sub ids 0 k) |> Node_id.set_of_list
    in
    (inner, seed, g, members))

let subset_arbitrary =
  QCheck.make
    ~print:(fun (inner, seed, _, members) ->
      Format.asprintf "inner=%d seed=%d members=%a" inner seed
        Node_id.pp_set members)
    subset_gen

let prop name f = QCheck.Test.make ~count:200 ~name subset_arbitrary f

(* Dense.levels against Graph.levels: the same level on every node, or
   the same exception. *)
let levels_agree g =
  let d = Dense.of_graph g in
  let outcome f =
    match f () with
    | v -> Ok v
    | exception Graph.Structural_error msg -> Error msg
  in
  match
    (outcome (fun () -> Dense.levels d), outcome (fun () -> Graph.levels g))
  with
  | Ok dense, Ok map ->
    Node_id.Map.cardinal map = Dense.length d
    && List.for_all
         (fun id -> dense.(Dense.index d id) = Node_id.Map.find id map)
         (Graph.node_ids g)
  | Error a, Error b -> a = b
  | Ok _, Error _ | Error _, Ok _ -> false

let agreement_properties =
  [
    prop "levels agree with Graph.levels on every node"
      (fun (_, _, g, _) -> levels_agree g);
    prop "pins agree with Cut" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        let ins, outs = Dense.pins_used d s in
        ins = Cut.inputs_used g members
        && outs = Cut.outputs_used g members);
    prop "net pins agree with Cut" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        Dense.inputs_used_nets d s = Cut.inputs_used_nets g members
        && Dense.outputs_used_nets d s = Cut.outputs_used_nets g members);
    prop "is_border agrees with Cut on every node" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        List.for_all
          (fun id ->
            Paredown_oracle.is_border d s (Dense.index d id)
            = Cut.is_border g members id)
          (Graph.node_ids g));
    prop "is_convex agrees with Cut" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        Dense.is_convex d s = Cut.is_convex g members);
    prop "crossing edges agree with Cut" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        Dense.in_edges d s = Cut.in_edges g members
        && Dense.out_edges d s = Cut.out_edges g members);
    prop "set round-trips through ids" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        Node_id.Set.equal (Dense.ids_of_set d s) members
        && Dense.cardinal s = Node_id.Set.cardinal members);
    prop "iter_members ascends like Set.iter" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        let via_dense = ref [] in
        Dense.iter_members s (fun i ->
            via_dense := Dense.node_id d i :: !via_dense);
        List.rev !via_dense = Node_id.Set.elements members);
    prop "removal_delta matches recount" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        Node_id.Set.for_all
          (fun id ->
            let b = Dense.index d id in
            let d_in, d_out = Dense.removal_delta d s b in
            let without = Node_id.Set.remove id members in
            d_in = Cut.inputs_used g without - Cut.inputs_used g members
            && d_out
               = Cut.outputs_used g without - Cut.outputs_used g members)
          members);
    prop "addition_delta inverts removal_delta" (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        let s = Dense.set_of_ids d members in
        List.for_all
          (fun id ->
            if Node_id.Set.mem id members then true
            else begin
              let b = Dense.index d id in
              let a_in, a_out = Dense.addition_delta d s b in
              Dense.add s b;
              let r_in, r_out = Dense.removal_delta d s b in
              Dense.remove s b;
              a_in = -r_in && a_out = -r_out
            end)
          (Graph.node_ids g));
  ]

(* --- Cyclic graphs ------------------------------------------------------- *)

(* Graph.connect accepts cycles, and the cut questions take whatever
   graph they are given, so neither Dense.is_convex nor Partition.check
   may raise on one.  A random network gets one back edge: the driver of
   some node's input port is replaced by an output of that node or of
   one of its descendants. *)
let with_back_edge g pick =
  let closing =
    List.concat_map
      (fun (e : Graph.edge) ->
        let x = e.Graph.dst.Graph.node in
        Graph.reachable g ~from:(Node_id.Set.singleton x)
        |> Node_id.Set.add x |> Node_id.Set.elements
        |> List.filter (fun y ->
               (Graph.descriptor g y).Eblock.Descriptor.n_outputs > 0)
        |> List.map (fun y -> (e, y)))
      (Graph.edges g)
  in
  match closing with
  | [] -> g
  | _ ->
    let e, y = List.nth closing (pick mod List.length closing) in
    Graph.connect (Graph.remove_edge g e) ~src:(y, 0)
      ~dst:(e.Graph.dst.Graph.node, e.Graph.dst.Graph.port)

(* Members are mostly partitionable, so checks get past eligibility to
   pins and convexity; an optional extra id (possibly a sensor, an
   output or an id outside the graph) exercises the eligibility
   errors, which must come before any Dense lookup. *)
let cyclic_gen =
  QCheck.Gen.(
    Testlib.network_gen ~max_inner:20 () >>= fun (inner, seed, g) ->
    nat >>= fun pick ->
    let g = with_back_edge g pick in
    let ids = Array.of_list (Graph.node_ids g) in
    let eligible = Array.of_list (Graph.partitionable_nodes g) in
    int_range 0 (Array.length eligible) >>= fun k ->
    shuffle_a eligible >>= fun () ->
    opt (int_range 0 (Array.length ids)) >|= fun extra ->
    let members =
      Node_id.set_of_list (Array.to_list (Array.sub eligible 0 k))
    in
    let members =
      match extra with
      | None -> members
      | Some i when i < Array.length ids -> Node_id.Set.add ids.(i) members
      | Some _ -> Node_id.Set.add (ids.(Array.length ids - 1) + 1) members
    in
    (inner, seed, g, members))

let check_configs =
  let open Core.Partition in
  [
    default_config;
    { default_config with pin_counting = Per_net };
    { default_config with require_convex = false };
  ]

let check_shapes =
  [ Core.Shape.default; Core.Shape.make ~inputs:8 ~outputs:8 ~cost:2.0 () ]

let cyclic_properties =
  let arbitrary =
    QCheck.make
      ~print:(fun (inner, seed, g, members) ->
        Format.asprintf "inner=%d seed=%d acyclic=%b members=%a" inner seed
          (Graph.is_acyclic g) Node_id.pp_set members)
      cyclic_gen
  in
  let prop name f = QCheck.Test.make ~count:300 ~name arbitrary f in
  [
    prop "levels raise what Graph.levels raises on cyclic graphs"
      (fun (_, _, g, _) -> levels_agree g);
    prop "is_convex agrees with Cut on cyclic graphs"
      (fun (_, _, g, members) ->
        let known = Node_id.Set.filter (Graph.mem g) members in
        let d = Dense.of_graph g in
        Dense.is_convex d (Dense.set_of_ids d known) = Cut.is_convex g known);
    prop "Partition.check agrees with the set-based check on cyclic graphs"
      (fun (_, _, g, members) ->
        let d = Dense.of_graph g in
        List.for_all
          (fun config ->
            List.for_all
              (fun shape ->
                let p = Core.Partition.make ~members ~shape in
                Core.Partition.check ~config d p
                = Partition_oracle.check ~config g p)
              check_shapes)
          check_configs);
  ]

(* The smallest loop through a candidate: button -> and2 <-> or2 -> led. *)
let test_two_gate_loop () =
  let open Eblock.Catalog in
  let g, button = Graph.add Graph.empty button in
  let g, and_gate = Graph.add g and2 in
  let g, or_gate = Graph.add g or2 in
  let g, lamp = Graph.add g led in
  let g = Graph.connect g ~src:(button, 0) ~dst:(and_gate, 0) in
  let g = Graph.connect g ~src:(or_gate, 0) ~dst:(and_gate, 1) in
  let g = Graph.connect g ~src:(and_gate, 0) ~dst:(or_gate, 0) in
  let g = Graph.connect g ~src:(or_gate, 0) ~dst:(lamp, 0) in
  check Alcotest.bool "cyclic" false (Graph.is_acyclic g);
  let d = Dense.of_graph g in
  Alcotest.check_raises "levels"
    (Graph.Structural_error "graph contains a cycle") (fun () ->
      ignore (Dense.levels d));
  let verdict members =
    match
      Core.Partition.check d
        (Core.Partition.make ~members:(Testlib.set members)
           ~shape:Core.Shape.default)
    with
    | Ok () -> "ok"
    | Error r -> Format.asprintf "%a" Core.Partition.pp_invalidity r
  in
  check Alcotest.string "{and2, or2}" "ok" (verdict [ and_gate; or_gate ]);
  check Alcotest.string "{and2}"
    (Format.asprintf "%a" Core.Partition.pp_invalidity
       (Core.Partition.Too_few_members 1))
    (verdict [ and_gate ]);
  let convex members = Dense.is_convex d (Dense.set_of_ids d members) in
  check Alcotest.bool "{and2, or2} convex" true
    (convex (Testlib.set [ and_gate; or_gate ]));
  (* the loop leaves {and2} through or2 and comes back *)
  check Alcotest.bool "{and2} not convex" false
    (convex (Testlib.set [ and_gate ]))

(* --- Exhaustive search on the dense kernel ------------------------------- *)

(* Every partition the dense leaf validation accepts must also satisfy
   the set-based reference check (Partition_oracle), and the search
   must still find Table 1's optima (the full optima table lives in
   test_exhaustive.ml; this is the kernel-equivalence angle:
   oracle-valid bins + pinned work counters). *)
let test_exhaustive_matches_oracle () =
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      if Netlist.Graph.inner_count g <= 9 then begin
        let r = Core.Exhaustive.run g in
        List.iter
          (fun p ->
            match Partition_oracle.check g p with
            | Ok () -> ()
            | Error inv ->
              Alcotest.failf "%s: dense search accepted %a: %a"
                d.Designs.Design.name Node_id.pp_set
                p.Core.Partition.members Core.Partition.pp_invalidity inv)
          r.Core.Exhaustive.solution.Core.Solution.partitions
      end)
    Designs.Library.all

(* The work counters are load-bearing constants: a change means a
   search explored a different tree, not just explored it faster.  The
   uncut search (test/exhaustive_oracle.ml) keeps the tree the dense
   rewrite left untouched; the library's feasibility cuts explore a
   subtree of it. *)
let test_pinned_work_counters () =
  let podium = Testlib.podium in
  let o = Exhaustive_oracle.run podium in
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "podium uncut (nodes, leaves)" (8282, 3574)
    (o.Exhaustive_oracle.nodes_explored, o.Exhaustive_oracle.leaves_checked);
  let r = Core.Exhaustive.run podium in
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "podium (nodes, leaves)" (2407, 29)
    (r.Core.Exhaustive.nodes_explored, r.Core.Exhaustive.leaves_checked);
  let g10 =
    Randgen.Generator.generate ~rng:(Prng.create 2) ~inner:10 ()
  in
  let o10 = Exhaustive_oracle.run g10 in
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "g10 uncut (nodes, leaves)" (715970, 558310)
    (o10.Exhaustive_oracle.nodes_explored, o10.Exhaustive_oracle.leaves_checked);
  let r10 = Core.Exhaustive.run g10 in
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "g10 (nodes, leaves)" (812, 16)
    (r10.Core.Exhaustive.nodes_explored, r10.Core.Exhaustive.leaves_checked);
  check Alcotest.int "g10 total" 7
    (Core.Solution.total_inner_after g10 r10.Core.Exhaustive.solution);
  let pd =
    Core.Paredown.run
      (Randgen.Generator.generate ~rng:(Prng.create 3) ~inner:20 ())
  in
  check
    (Alcotest.triple Alcotest.int Alcotest.int Alcotest.int)
    "g20 paredown (outer, fit_checks, removals)" (13, 108, 95)
    ( pd.Core.Paredown.stats.Core.Paredown.outer_iterations,
      pd.Core.Paredown.stats.Core.Paredown.fit_checks,
      pd.Core.Paredown.stats.Core.Paredown.removals )

(* --- Parallel sweeps ------------------------------------------------------ *)

(* Parallel.map must be observationally List.map. *)
let parallel_map_is_map =
  QCheck.Test.make ~count:50 ~name:"Parallel.map ~jobs:3 = List.map"
    QCheck.(list small_int)
    (fun xs -> Parallel.map ~jobs:3 (fun x -> x * x) xs
               = List.map (fun x -> x * x) xs)

(* A failing parallel run must raise the exception of the LOWEST failing
   index — the one List.map would raise — whatever the domain schedule.
   Regression for the claimed-then-skipped race: a worker that had
   already claimed a low index used to be abandoned when a higher index
   failed first, letting the higher failure win. *)
exception Boom of int

let parallel_failure_is_lowest_index =
  QCheck.Test.make ~count:100
    ~name:"Parallel.map ~jobs:4 raises the same failure as ~jobs:1"
    QCheck.(pair (list_of_size Gen.(5 -- 40) small_int) (list small_int))
    (fun (xs, failing) ->
      let n = List.length xs in
      let fail_at =
        List.filter (fun i -> i >= 0 && i < n) failing
        |> List.sort_uniq compare
      in
      QCheck.assume (fail_at <> []);
      let f i = if List.mem i fail_at then raise (Boom i) else i in
      let items = List.init n (fun i -> i) in
      let outcome jobs =
        match Parallel.map ~jobs f items with
        | _ -> None
        | exception Boom i -> Some i
      in
      outcome 4 = outcome 1 && outcome 4 = Some (List.hd fail_at))

(* Domain-safe metrics: a 2-domain sweep must report exactly the same
   deterministic counter totals as the sequential one. *)
let test_two_domain_counters_agree () =
  let counter_delta jobs =
    let (), entries =
      Obs.Metrics.with_scope (fun () ->
          ignore (Experiments.Scale.run_random ~sizes:[ 20; 30; 40 ] ~jobs ()))
    in
    List.filter_map
      (fun e ->
        if e.Obs.Metrics.value <> 0 then
          Some (e.Obs.Metrics.name, e.Obs.Metrics.value)
        else None)
      entries
  in
  let seq = counter_delta 1 and par = counter_delta 2 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "counter deltas, jobs 2 vs jobs 1" seq par;
  check Alcotest.bool "fit_checks delta present" true
    (List.mem_assoc "core.paredown.fit_checks" seq)

let test_parallel_results_in_order () =
  let sizes = [ 20; 25; 30; 35; 40 ] in
  let seq = Experiments.Scale.run_random ~sizes ()
  and par = Experiments.Scale.run_random ~sizes ~jobs:4 () in
  check (Alcotest.list Alcotest.int) "inner order"
    (List.map (fun p -> p.Experiments.Scale.inner) seq)
    (List.map (fun p -> p.Experiments.Scale.inner) par);
  check (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "(fit_checks, total) per size"
    (List.map
       (fun p ->
         (p.Experiments.Scale.fit_checks, p.Experiments.Scale.total))
       seq)
    (List.map
       (fun p ->
         (p.Experiments.Scale.fit_checks, p.Experiments.Scale.total))
       par)

let () =
  Alcotest.run "dense"
    [
      ("cut agreement", Testlib.qtests agreement_properties);
      ( "cyclic graphs",
        Testlib.qtests cyclic_properties
        @ [ Alcotest.test_case "two-gate loop" `Quick test_two_gate_loop ] );
      ( "exhaustive kernel",
        [
          Alcotest.test_case "oracle-valid partitions" `Quick
            test_exhaustive_matches_oracle;
          Alcotest.test_case "pinned work counters" `Quick
            test_pinned_work_counters;
        ] );
      ( "parallel",
        Testlib.qtests
          [ parallel_map_is_map; parallel_failure_is_lowest_index ]
        @ [
            Alcotest.test_case "2-domain counters agree" `Quick
              test_two_domain_counters_agree;
            Alcotest.test_case "results in input order" `Quick
              test_parallel_results_in_order;
          ] );
    ]

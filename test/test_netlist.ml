(* Unit and property tests for the network model: graph construction,
   structural validation, levels, cut metrics, convexity, and the text
   and DOT serialisations. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Cut = Cut_oracle
module C = Eblock.Catalog

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium

let ids = Alcotest.list Alcotest.int

(* --- Construction and errors ----------------------------------------- *)

let structural name f =
  match f () with
  | exception Graph.Structural_error _ -> ()
  | _ -> Alcotest.failf "%s did not raise" name

let test_add_and_ids () =
  let g, a = Graph.add Graph.empty C.button in
  let g, b = Graph.add g C.led in
  check Alcotest.int "fresh ids" 2 b;
  check ids "node_ids sorted" [ a; b ] (Graph.node_ids g);
  let g, explicit = Graph.add ~id:10 g C.not_gate in
  check Alcotest.int "explicit id" 10 explicit;
  let _, next = Graph.add g C.not_gate in
  check Alcotest.int "next after max" 11 next

let test_duplicate_id () =
  let g, a = Graph.add Graph.empty C.button in
  structural "duplicate id" (fun () -> Graph.add ~id:a g C.led)

let test_connect_errors () =
  let g, s = Graph.add Graph.empty C.button in
  let g, n = Graph.add g C.not_gate in
  let g, l = Graph.add g C.led in
  structural "unknown src" (fun () ->
      Graph.connect g ~src:(99, 0) ~dst:(n, 0));
  structural "unknown dst" (fun () ->
      Graph.connect g ~src:(s, 0) ~dst:(99, 0));
  structural "src port range" (fun () ->
      Graph.connect g ~src:(s, 1) ~dst:(n, 0));
  structural "dst port range" (fun () ->
      Graph.connect g ~src:(s, 0) ~dst:(n, 1));
  structural "sensor has no inputs" (fun () ->
      Graph.connect g ~src:(n, 0) ~dst:(s, 0));
  let g = Graph.connect g ~src:(s, 0) ~dst:(n, 0) in
  structural "double driver" (fun () ->
      Graph.connect g ~src:(s, 0) ~dst:(n, 0));
  let g = Graph.connect g ~src:(n, 0) ~dst:(l, 0) in
  Testlib.check_ok "valid now"
    (Result.map_error (String.concat "; ") (Graph.validate g))

let test_fanout_allowed () =
  (* one output port may drive several consumers; each edge is separate *)
  let g, s = Graph.add Graph.empty C.button in
  let g, n1 = Graph.add g C.not_gate in
  let g, n2 = Graph.add g C.not_gate in
  let g = Graph.connect g ~src:(s, 0) ~dst:(n1, 0) in
  let g = Graph.connect g ~src:(s, 0) ~dst:(n2, 0) in
  check Alcotest.int "out degree" 2 (Graph.out_degree g s);
  check ids "succs distinct" [ n1; n2 ] (Graph.succs g s)

let test_remove_node () =
  let g, _, inner, _ = Testlib.chain [ C.not_gate; C.toggle ] in
  let first = List.hd inner in
  let g' = Graph.remove_node g first in
  check Alcotest.bool "gone" false (Graph.mem g' first);
  check Alcotest.int "edges dropped" (Graph.edge_count g - 2)
    (Graph.edge_count g')

let test_remove_edge () =
  let g, s, inner, _ = Testlib.chain [ C.not_gate ] in
  let first = List.hd inner in
  let e = List.hd (Graph.fanout g s) in
  let g' = Graph.remove_edge g e in
  check Alcotest.int "fanin now empty" 0 (Graph.in_degree g' first);
  check Alcotest.bool "validate flags undriven port" true
    (match Graph.validate g' with Error _ -> true | Ok () -> false)

(* --- Degrees, drivers, accessors -------------------------------------- *)

let test_podium_structure () =
  check Alcotest.int "nodes" 12 (Graph.node_count podium);
  check Alcotest.int "edges" 13 (Graph.edge_count podium);
  check Alcotest.int "inner" 8 (Graph.inner_count podium);
  check ids "sensors" [ 1 ] (Graph.sensors podium);
  check ids "outputs" [ 10; 11; 12 ] (Graph.primary_outputs podium);
  check ids "inner nodes" [ 2; 3; 4; 5; 6; 7; 8; 9 ]
    (Graph.inner_nodes podium);
  check Alcotest.int "node 8 indegree" 2 (Graph.in_degree podium 8);
  check Alcotest.int "node 2 outdegree" 2 (Graph.out_degree podium 2);
  check ids "preds of 8" [ 6; 7 ] (Graph.preds podium 8);
  check ids "succs of 5" [ 6; 7 ] (Graph.succs podium 5);
  check Alcotest.bool "driver of 8.1 is 7.0" true
    (Graph.driver podium 8 1 = Some { Graph.node = 7; port = 0 })

let test_total_cost () =
  (* 1 sensor + 3 outputs + 8 predefined compute = 12 unit-cost blocks *)
  check (Alcotest.float 0.001) "podium cost" 12.0 (Graph.total_cost podium)

(* --- Validation -------------------------------------------------------- *)

let test_validate_problems () =
  let no_output =
    let g, s = Graph.add Graph.empty C.button in
    let g, n = Graph.add g C.not_gate in
    Graph.connect g ~src:(s, 0) ~dst:(n, 0)
  in
  (match Graph.validate no_output with
   | Error problems ->
     check Alcotest.bool "missing output reported" true
       (List.exists (fun m -> Testlib.contains m "no output block") problems)
   | Ok () -> Alcotest.fail "accepted network without outputs");
  let undriven =
    let g, _ = Graph.add Graph.empty C.button in
    let g, _ = Graph.add g C.and2 in
    let g, _ = Graph.add g C.led in
    g
  in
  (match Graph.validate undriven with
   | Error problems ->
     check Alcotest.bool "undriven ports reported" true
       (List.length problems >= 3)
   | Ok () -> Alcotest.fail "accepted undriven inputs")

let test_cycle_detection () =
  let g, s = Graph.add Graph.empty C.button in
  let g, a = Graph.add g C.and2 in
  let g, b = Graph.add g C.not_gate in
  let g, l = Graph.add g C.led in
  let g = Graph.connect g ~src:(s, 0) ~dst:(a, 0) in
  let g = Graph.connect g ~src:(a, 0) ~dst:(b, 0) in
  let g = Graph.connect g ~src:(b, 0) ~dst:(a, 1) in  (* loop a -> b -> a *)
  let g = Graph.connect g ~src:(a, 0) ~dst:(l, 0) in
  check Alcotest.bool "cyclic" false (Graph.is_acyclic g);
  structural "topological_order raises" (fun () ->
      Graph.topological_order g);
  (match Graph.validate g with
   | Error problems ->
     check Alcotest.bool "loop reported" true
       (List.exists (fun m -> Testlib.contains m "loop") problems)
   | Ok () -> Alcotest.fail "accepted cyclic network")

(* --- Order and levels --------------------------------------------------- *)

let test_topological_order () =
  let order = Graph.topological_order podium in
  check Alcotest.int "all nodes" 12 (List.length order);
  let position = Hashtbl.create 12 in
  List.iteri (fun i id -> Hashtbl.replace position id i) order;
  List.iter
    (fun e ->
      let s = Hashtbl.find position e.Graph.src.Graph.node in
      let d = Hashtbl.find position e.Graph.dst.Graph.node in
      check Alcotest.bool "edge respects order" true (s < d))
    (Graph.edges podium)

let test_levels () =
  let levels = Graph.levels podium in
  let level id = Node_id.Map.find id levels in
  check Alcotest.int "sensor" 0 (level 1);
  check Alcotest.int "toggle" 1 (level 2);
  check Alcotest.int "delays" 2 (level 3);
  check Alcotest.int "or" 3 (level 5);
  check Alcotest.int "splitters" 4 (level 6);
  check Alcotest.int "node 8 (max path)" 5 (level 8);
  check Alcotest.int "primary output after 9" 6 (level 12);
  check Alcotest.int "via accessor" 5 (Graph.level podium 8)

let test_reachable () =
  let r = Graph.reachable podium ~from:(set [ 5 ]) in
  check Testlib.id_set "downstream of 5" (set [ 6; 7; 8; 9; 10; 11; 12 ]) r;
  let r = Graph.reachable podium ~from:(set [ 9 ]) in
  check Testlib.id_set "downstream of 9" (set [ 12 ]) r

(* --- Cut metrics (the Figure 5 numbers) -------------------------------- *)

let test_cut_counts () =
  let io s = (Cut.inputs_used podium s, Cut.outputs_used podium s) in
  check (Alcotest.pair Alcotest.int Alcotest.int) "all inner" (1, 3)
    (io (set [ 2; 3; 4; 5; 6; 7; 8; 9 ]));
  check (Alcotest.pair Alcotest.int Alcotest.int) "minus 9" (1, 3)
    (io (set [ 2; 3; 4; 5; 6; 7; 8 ]));
  check (Alcotest.pair Alcotest.int Alcotest.int) "minus 9,8" (1, 4)
    (io (set [ 2; 3; 4; 5; 6; 7 ]));
  check (Alcotest.pair Alcotest.int Alcotest.int) "first partition" (1, 2)
    (io (set [ 2; 3; 4; 5 ]));
  check (Alcotest.pair Alcotest.int Alcotest.int) "second partition" (2, 2)
    (io (set [ 6; 8; 9 ]));
  check (Alcotest.pair Alcotest.int Alcotest.int) "single 7" (1, 2)
    (io (set [ 7 ]))

let test_cut_edges () =
  let in_e = Cut.in_edges podium (set [ 6; 8; 9 ]) in
  check ids "in edge sources" [ 5; 7 ]
    (List.sort compare (List.map (fun e -> e.Graph.src.Graph.node) in_e));
  let out_e = Cut.out_edges podium (set [ 6; 8; 9 ]) in
  check ids "out edge destinations" [ 11; 12 ]
    (List.sort compare (List.map (fun e -> e.Graph.dst.Graph.node) out_e))

let test_border_blocks () =
  check ids "initial candidate borders" [ 2; 8; 9 ]
    (Cut.border_blocks podium (set [ 2; 3; 4; 5; 6; 7; 8; 9 ]));
  check ids "after removing 9" [ 2; 8 ]
    (Cut.border_blocks podium (set [ 2; 3; 4; 5; 6; 7; 8 ]));
  check ids "after removing 8" [ 2; 6; 7 ]
    (Cut.border_blocks podium (set [ 2; 3; 4; 5; 6; 7 ]))

let test_convexity () =
  check Alcotest.bool "full inner set convex" true
    (Cut.is_convex podium (set [ 2; 3; 4; 5; 6; 7; 8; 9 ]));
  check Alcotest.bool "{6,8,9} convex" true
    (Cut.is_convex podium (set [ 6; 8; 9 ]));
  (* 2 -> 3 -> 5: dropping 3 breaks convexity via the outside path *)
  check Alcotest.bool "{2,5} not convex" false
    (Cut.is_convex podium (set [ 2; 5 ]));
  (* disconnected but convex *)
  check Alcotest.bool "{3,4} convex (parallel)" true
    (Cut.is_convex podium (set [ 3; 4 ]))

let test_net_counting () =
  (* node 2 fans out to 3 and 4 from one port: 2 edges but 1 net *)
  let s = set [ 3; 4 ] in
  check Alcotest.int "edges in" 2 (Cut.inputs_used podium s);
  check Alcotest.int "nets in" 1 (Cut.inputs_used_nets podium s);
  check Alcotest.int "edges out" 2 (Cut.outputs_used podium s);
  check Alcotest.int "nets out" 2 (Cut.outputs_used_nets podium s)

(* --- Statistics --------------------------------------------------------- *)

let test_stats_podium () =
  let s = Netlist.Stats.compute podium in
  check Alcotest.int "nodes" 12 s.Netlist.Stats.nodes;
  check Alcotest.int "edges" 13 s.Netlist.Stats.edges;
  check Alcotest.int "sensors" 1 s.Netlist.Stats.sensors;
  check Alcotest.int "outputs" 3 s.Netlist.Stats.primary_outputs;
  check Alcotest.int "inner" 8 s.Netlist.Stats.inner;
  check Alcotest.int "compute" 8 s.Netlist.Stats.compute;
  check Alcotest.int "comm" 0 s.Netlist.Stats.comm;
  check Alcotest.int "depth" 6 s.Netlist.Stats.depth;
  check Alcotest.int "max fanout" 2 s.Netlist.Stats.max_fanout;
  check Alcotest.int "max fanin" 2 s.Netlist.Stats.max_fanin;
  (* nodes 5 and 8 reconverge on paths from the single button *)
  check Alcotest.int "reconvergences" 2 s.Netlist.Stats.reconvergences;
  check (Alcotest.float 0.001) "cost" 12.0 s.Netlist.Stats.total_cost

let test_stats_no_reconvergence () =
  let g, _, _, _ = Testlib.chain [ C.not_gate; C.toggle; C.trip_latch ] in
  let s = Netlist.Stats.compute g in
  check Alcotest.int "chain has none" 0 s.Netlist.Stats.reconvergences;
  check Alcotest.int "depth = chain length" 4 s.Netlist.Stats.depth

let test_stats_synthesised () =
  (* after synthesis the programmable count shows up in the mix *)
  let result, _ = Codegen.Replace.synthesize podium in
  let s = Netlist.Stats.compute result.Codegen.Replace.network in
  check Alcotest.int "programmable" 2 s.Netlist.Stats.programmable;
  check Alcotest.int "compute left" 1 s.Netlist.Stats.compute

(* --- Text round-trip ---------------------------------------------------- *)

let test_textio_roundtrip () =
  let text = Netlist.Textio.to_string ~name:"podium" podium in
  let name, parsed = Netlist.Textio.of_string text in
  check (Alcotest.option Alcotest.string) "name" (Some "podium") name;
  check Alcotest.int "nodes" (Graph.node_count podium)
    (Graph.node_count parsed);
  check Alcotest.int "edges" (Graph.edge_count podium)
    (Graph.edge_count parsed);
  check Alcotest.bool "same text again" true
    (String.equal text (Netlist.Textio.to_string ~name:"podium" parsed))

let test_textio_parse_errors () =
  let fails_at expected_line text =
    match Netlist.Textio.of_string text with
    | exception Netlist.Textio.Parse_error { line; _ } ->
      check Alcotest.int "line number" expected_line line
    | _ -> Alcotest.fail "parse did not fail"
  in
  fails_at 1 "bogus directive";
  fails_at 2 "node 1 button\nnode 2 not_a_block";
  fails_at 3 "node 1 button\nnode 2 led\nedge 1.0-2.0";
  fails_at 2 "node 1 button\nedge 1.0 99.0";
  fails_at 3 "node 1 button\nnode 2 led\nedge 1.5 2.0"

let test_textio_comments () =
  let _, g =
    Netlist.Textio.of_string
      "# a comment line\nnode 1 button # trailing comment\nnode 2 led\n\
       edge 1.0 2.0\n\n"
  in
  check Alcotest.int "parsed through comments" 2 (Graph.node_count g)

let test_defblock_parse () =
  let _, g =
    Netlist.Textio.of_string
      "defblock inv2 compute 1 2 init true false {\n\
      \  out[0] = !in[0];\n\
      \  out[1] = in[0];\n\
       }\n\
       node 1 button\n\
       node 2 inv2\n\
       node 3 led\n\
       node 4 led\n\
       edge 1.0 2.0\n\
       edge 2.0 3.0\n\
       edge 2.1 4.0\n"
  in
  let d = Graph.descriptor g 2 in
  check Alcotest.string "name" "inv2" d.Eblock.Descriptor.name;
  check Alcotest.int "outputs" 2 d.Eblock.Descriptor.n_outputs;
  check Alcotest.bool "init carried" true
    (d.Eblock.Descriptor.output_init
     = [| Behavior.Ast.Bool true; Behavior.Ast.Bool false |]);
  (* and it simulates: the inverting port follows the power-on sweep *)
  let engine = Sim.Engine.create g in
  check Testlib.value "inverting port" (Bool true)
    (Sim.Engine.output_value engine 3)

let test_defblock_errors () =
  let fails_at expected_line text =
    match Netlist.Textio.of_string text with
    | exception Netlist.Textio.Parse_error { line; _ } ->
      check Alcotest.int "line" expected_line line
    | _ -> Alcotest.fail "parse did not fail"
  in
  fails_at 1 "defblock x compute 1 1";  (* no opening brace *)
  fails_at 1 "defblock x nonsense 1 1 {\n}\n";
  fails_at 1 "defblock x compute 1 1 {\n  out[0] = in[0];\n";  (* unclosed *)
  (* arity violations are reported at the defblock header *)
  fails_at 1 "defblock x compute 1 1 {\n  out[0] = in[3];\n}\n";
  (* duplicates are reported at the second definition's header *)
  fails_at 4
    "defblock x compute 1 1 {\n  out[0] = in[0];\n}\n\
     defblock x compute 1 1 {\n  out[0] = in[0];\n}\n";
  (* behaviour syntax errors are reported at the offending source line *)
  fails_at 3 "defblock x compute 1 1 {\n  out[0] = in[0];\n  bogus @;\n}\n"

let test_synthesised_roundtrip () =
  (* programmable blocks serialise as defblocks and load back equivalent *)
  let g = Testlib.podium in
  let result, _ = Codegen.Replace.synthesize g in
  let g' = result.Codegen.Replace.network in
  let text = Netlist.Textio.to_string ~name:"synth" g' in
  check Alcotest.bool "defblock emitted" true
    (Testlib.contains text "defblock prog");
  let _, loaded = Netlist.Textio.of_string text in
  Testlib.check_ok "loaded equivalent"
    (Result.map_error
       (Format.asprintf "%a" Sim.Equiv.pp_mismatch)
       (Sim.Equiv.check_random ~reference:g' ~candidate:loaded ~seed:3
          ~steps:40))

let test_dot_output () =
  let dot = Netlist.Dot.to_string ~title:"t" podium in
  check Alcotest.bool "digraph" true (Testlib.contains dot "digraph");
  check Alcotest.bool "every node present" true
    (List.for_all
       (fun id -> Testlib.contains dot (Printf.sprintf "n%d " id))
       (Graph.node_ids podium));
  let highlighted =
    Netlist.Dot.to_string ~highlight:[ set [ 2; 3; 4; 5 ] ] podium
  in
  check Alcotest.bool "cluster for highlight" true
    (Testlib.contains highlighted "subgraph cluster_0")

(* --- Properties --------------------------------------------------------- *)

let prop_generated_topological =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:60
    (Testlib.network_arbitrary ()) (fun (_, _, g) ->
      let order = Graph.topological_order g in
      let position = Hashtbl.create 64 in
      List.iteri (fun i id -> Hashtbl.replace position id i) order;
      List.for_all
        (fun e ->
          Hashtbl.find position e.Graph.src.Graph.node
          < Hashtbl.find position e.Graph.dst.Graph.node)
        (Graph.edges g))

let prop_levels_monotone =
  QCheck.Test.make ~name:"levels increase along edges" ~count:60
    (Testlib.network_arbitrary ()) (fun (_, _, g) ->
      let levels = Graph.levels g in
      List.for_all
        (fun e ->
          Node_id.Map.find e.Graph.src.Graph.node levels
          < Node_id.Map.find e.Graph.dst.Graph.node levels)
        (Graph.edges g))

let prop_cut_complement =
  (* inputs of a set are outputs of its complement and vice versa *)
  QCheck.Test.make ~name:"cut counts agree with complement" ~count:60
    (QCheck.pair (Testlib.network_arbitrary ()) QCheck.(int_bound 1000))
    (fun ((_, _, g), salt) ->
      let inner = Graph.inner_nodes g in
      let subset =
        List.filteri (fun i _ -> (i + salt) mod 3 <> 0) inner
        |> Node_id.set_of_list
      in
      let complement =
        Node_id.Set.diff
          (Node_id.Set.of_list (Graph.node_ids g))
          subset
      in
      Cut.inputs_used g subset = Cut.outputs_used g complement
      && Cut.outputs_used g subset = Cut.inputs_used g complement)

let prop_textio_roundtrip =
  QCheck.Test.make ~name:"textio round-trips generated networks" ~count:60
    (Testlib.network_arbitrary ()) (fun (_, _, g) ->
      let text = Netlist.Textio.to_string g in
      let _, parsed = Netlist.Textio.of_string text in
      String.equal text (Netlist.Textio.to_string parsed))

let () =
  Alcotest.run "netlist"
    [
      ( "construction",
        [
          Alcotest.test_case "add and ids" `Quick test_add_and_ids;
          Alcotest.test_case "duplicate id" `Quick test_duplicate_id;
          Alcotest.test_case "connect errors" `Quick test_connect_errors;
          Alcotest.test_case "fanout" `Quick test_fanout_allowed;
          Alcotest.test_case "remove node" `Quick test_remove_node;
          Alcotest.test_case "remove edge" `Quick test_remove_edge;
        ] );
      ( "structure",
        [
          Alcotest.test_case "podium accessors" `Quick test_podium_structure;
          Alcotest.test_case "total cost" `Quick test_total_cost;
          Alcotest.test_case "validate problems" `Quick
            test_validate_problems;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "topological order" `Quick
            test_topological_order;
          Alcotest.test_case "levels" `Quick test_levels;
          Alcotest.test_case "reachable" `Quick test_reachable;
        ] );
      ( "cut",
        [
          Alcotest.test_case "figure 5 pin counts" `Quick test_cut_counts;
          Alcotest.test_case "cut edges" `Quick test_cut_edges;
          Alcotest.test_case "border blocks" `Quick test_border_blocks;
          Alcotest.test_case "convexity" `Quick test_convexity;
          Alcotest.test_case "net vs edge counting" `Quick test_net_counting;
        ] );
      ( "stats",
        [
          Alcotest.test_case "podium" `Quick test_stats_podium;
          Alcotest.test_case "chain" `Quick test_stats_no_reconvergence;
          Alcotest.test_case "synthesised" `Quick test_stats_synthesised;
        ] );
      ( "io",
        [
          Alcotest.test_case "text round-trip" `Quick test_textio_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_textio_parse_errors;
          Alcotest.test_case "comments" `Quick test_textio_comments;
          Alcotest.test_case "defblock" `Quick test_defblock_parse;
          Alcotest.test_case "defblock errors" `Quick test_defblock_errors;
          Alcotest.test_case "synthesised round-trip" `Quick
            test_synthesised_roundtrip;
          Alcotest.test_case "dot" `Quick test_dot_output;
        ] );
      ( "properties",
        Testlib.qtests
          [
            prop_generated_topological; prop_levels_monotone;
            prop_cut_complement; prop_textio_roundtrip;
          ] );
    ]

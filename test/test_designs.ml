(* Tests for the design library: structural validity, Table 1 inner-block
   counts, the reconstruction invariants each design was built to satisfy,
   and the registry. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let check = Alcotest.check
let set = Testlib.set

let test_all_structurally_valid () =
  List.iter
    (fun d ->
      Testlib.check_ok d.Designs.Design.name
        (Result.map_error (String.concat "; ")
           (Graph.validate d.Designs.Design.network)))
    Designs.Library.all

let test_inner_counts_match_table1 () =
  List.iter
    (fun d ->
      match d.Designs.Design.paper with
      | Some row ->
        check Alcotest.int d.Designs.Design.name
          row.Designs.Design.inner_original
          (Designs.Design.inner_count d)
      | None -> Alcotest.failf "%s missing its Table 1 row" d.Designs.Design.name)
    Designs.Library.table1

let test_table1_count_and_order () =
  check Alcotest.int "15 designs" 15 (List.length Designs.Library.table1);
  (* Table 1 is sorted by inner-block count *)
  let counts = List.map Designs.Design.inner_count Designs.Library.table1 in
  check (Alcotest.list Alcotest.int) "table order"
    [ 2; 2; 2; 2; 3; 3; 3; 3; 5; 6; 8; 10; 19; 19; 23 ] counts

let test_find () =
  (match Designs.Library.find "podium timer 3" with
   | Some d ->
     check Alcotest.string "case-insensitive" "Podium Timer 3"
       d.Designs.Design.name
   | None -> Alcotest.fail "lookup failed");
  (* CLI spellings: separators normalize and a unique prefix resolves *)
  (match Designs.Library.find "entry_gate" with
   | Some d ->
     check Alcotest.string "normalized prefix" "Entry Gate Detector"
       d.Designs.Design.name
   | None -> Alcotest.fail "entry_gate did not resolve");
  check Alcotest.bool "ambiguous prefix" true
    (Designs.Library.find "doorbell" = None);
  check Alcotest.bool "unknown" true (Designs.Library.find "nope" = None)

let test_unique_names () =
  let names = List.map (fun d -> d.Designs.Design.name) Designs.Library.all in
  check Alcotest.int "no duplicates" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_podium_matches_figure5 () =
  let g = Designs.Library.podium_timer_3.Designs.Design.network in
  check (Alcotest.list Alcotest.int) "inner ids as in the figure"
    [ 2; 3; 4; 5; 6; 7; 8; 9 ] (Graph.inner_nodes g);
  (* the exact edge structure the Figure 5 derivation rests on *)
  let edge src sport dst dport =
    List.exists
      (fun e ->
        e.Graph.src = { Graph.node = src; port = sport }
        && e.Graph.dst = { Graph.node = dst; port = dport })
      (Graph.edges g)
  in
  List.iter
    (fun (s, sp, d, dp) ->
      check Alcotest.bool
        (Printf.sprintf "edge %d.%d->%d.%d" s sp d dp)
        true (edge s sp d dp))
    [
      (1, 0, 2, 0); (2, 0, 3, 0); (2, 0, 4, 0); (3, 0, 5, 0); (4, 0, 5, 1);
      (5, 0, 6, 0); (5, 0, 7, 0); (6, 0, 8, 0); (6, 1, 9, 0); (7, 0, 8, 1);
      (7, 1, 10, 0); (8, 0, 11, 0); (9, 0, 12, 0);
    ]

let test_comm_barrier_designs () =
  (* the doorbell/motion designs rely on comm blocks being inner but not
     partitionable *)
  List.iter
    (fun (d, comm_expected) ->
      let g = d.Designs.Design.network in
      let comm =
        List.length
          (List.filter
             (fun id -> Graph.kind g id = Eblock.Kind.Comm)
             (Graph.inner_nodes g))
      in
      check Alcotest.int (d.Designs.Design.name ^ " comm blocks")
        comm_expected comm)
    [
      (Designs.Library.doorbell_extender_1, 4);
      (Designs.Library.doorbell_extender_2, 4);
      (Designs.Library.motion_on_property_alert, 14);
      (Designs.Library.two_zone_security, 4);
      (Designs.Library.timed_passage, 6);
    ]

let test_two_button_light_blocked () =
  (* the reconstruction is engineered so that no candidate fits a 2x2:
     every pair or triple needs at least 3 output pins *)
  let g = Designs.Library.two_button_light.Designs.Design.network in
  let subsets = [ [ 3; 4 ]; [ 3; 5 ]; [ 4; 5 ]; [ 3; 4; 5 ] ] in
  List.iter
    (fun ids ->
      let p =
        Core.Partition.make ~members:(set ids) ~shape:Core.Shape.default
      in
      check Alcotest.bool
        (Format.asprintf "%a invalid" Node_id.pp_set (set ids))
        false
        (Core.Partition.is_valid (Netlist.Dense.of_graph g) p))
    subsets

(* A malformed roster is a caller error, so [make] raises
   [Invalid_argument] — not [Failure], which reads as an internal
   defect. *)
let expect_failure what contains_all f =
  match f () with
  | exception Invalid_argument msg ->
    List.iter
      (fun needle ->
        check Alcotest.bool
          (Printf.sprintf "%s message mentions %S" what needle)
          true (Testlib.contains msg needle))
      contains_all
  | exception Failure _ ->
    Alcotest.failf "%s raised Failure instead of Invalid_argument" what
  | _ -> Alcotest.failf "%s did not raise Invalid_argument" what

let test_make_malformed_names_design_and_block () =
  (* and2's second input is left undriven: the message must name the
     design, the undriven port, and resolve the node id to its block *)
  expect_failure "malformed design"
    [ "Broken Widget"; "input port 2.1 is not driven"; "2=and2" ]
    (fun () ->
      Designs.Design.make ~name:"Broken Widget"
        ~description:"negative fixture"
        ~nodes:
          [ (1, Eblock.Catalog.button); (2, Eblock.Catalog.and2);
            (3, Eblock.Catalog.led) ]
        ~edges:[ ((1, 0), (2, 0)); ((2, 0), (3, 0)) ]
        ())

let test_make_table1_mismatch_names_design () =
  expect_failure "Table 1 mismatch"
    [ "Miscounted Widget"; "has 1 inner blocks"; "says 5"; "2=" ]
    (fun () ->
      Designs.Design.make ~name:"Miscounted Widget"
        ~description:"negative fixture"
        ~paper:
          {
            Designs.Design.inner_original = 5;
            exhaustive_total = None;
            exhaustive_prog = None;
            paredown_total = 1;
            paredown_prog = 1;
          }
        ~nodes:
          [ (1, Eblock.Catalog.button); (2, Eblock.Catalog.not_gate);
            (3, Eblock.Catalog.led) ]
        ~edges:[ ((1, 0), (2, 0)); ((2, 0), (3, 0)) ]
        ())

let test_designs_simulate () =
  (* every design runs under random stimuli without structural failures *)
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let engine = Sim.Engine.create g in
      let script =
        Sim.Stimulus.random
          ~rng:(Prng.create 13)
          ~sensors:(Graph.sensors g) ~steps:20 ~spacing:25
      in
      let observations = Sim.Stimulus.settled_outputs engine script in
      check Alcotest.int (d.Designs.Design.name ^ " observations") 20
        (List.length observations))
    Designs.Library.all

let test_garage_figure1_behaviour () =
  (* Figure 1: LED lights iff the door contact is closed and it is dark *)
  let g = Designs.Library.garage_open_at_night.Designs.Design.network in
  let engine = Sim.Engine.create g in
  let led = List.hd (Graph.primary_outputs g) in
  let expect msg want door light =
    Sim.Engine.set_sensor engine 1 door;
    Sim.Engine.set_sensor engine 2 light;
    Sim.Engine.settle engine;
    check Testlib.value msg (Behavior.Ast.Bool want)
      (Sim.Engine.output_value engine led)
  in
  expect "closed day" false false true;
  expect "open day" false true true;
  expect "open night" true true false;
  expect "closed night" false false false

let () =
  Alcotest.run "designs"
    [
      ( "library",
        [
          Alcotest.test_case "all valid" `Quick test_all_structurally_valid;
          Alcotest.test_case "inner counts" `Quick
            test_inner_counts_match_table1;
          Alcotest.test_case "table order" `Quick test_table1_count_and_order;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "unique names" `Quick test_unique_names;
        ] );
      ( "reconstructions",
        [
          Alcotest.test_case "podium = figure 5" `Quick
            test_podium_matches_figure5;
          Alcotest.test_case "comm barriers" `Quick test_comm_barrier_designs;
          Alcotest.test_case "two-button light blocked" `Quick
            test_two_button_light_blocked;
        ] );
      ( "construction errors",
        [
          Alcotest.test_case "malformed names design and block" `Quick
            test_make_malformed_names_design_and_block;
          Alcotest.test_case "table1 mismatch names design" `Quick
            test_make_table1_mismatch_names_design;
        ] );
      ( "behaviour",
        [
          Alcotest.test_case "all simulate" `Quick test_designs_simulate;
          Alcotest.test_case "garage logic" `Quick
            test_garage_figure1_behaviour;
        ] );
    ]

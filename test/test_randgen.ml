(* Tests for the random design generator and the worst-case family. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let check = Alcotest.check

let generate ?profile ~seed ~inner () =
  Randgen.Generator.generate ?profile ~rng:(Prng.create seed) ~inner ()

let test_exact_inner_count () =
  List.iter
    (fun inner ->
      let g = generate ~seed:1 ~inner () in
      check Alcotest.int
        (Printf.sprintf "inner=%d" inner)
        inner (Graph.inner_count g))
    [ 1; 2; 3; 5; 10; 45; 100 ]

let test_determinism () =
  let text seed =
    Netlist.Textio.to_string (generate ~seed ~inner:20 ())
  in
  check Alcotest.string "same seed" (text 7) (text 7);
  check Alcotest.bool "different seeds differ" true (text 7 <> text 8)

let test_rejects_bad_size () =
  match generate ~seed:1 ~inner:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inner=0 accepted"

let test_profile_all_comm () =
  let profile =
    { Randgen.Generator.default_profile with comm_probability = 1.0 }
  in
  let g = generate ~profile ~seed:3 ~inner:12 () in
  check Alcotest.bool "every inner block is comm" true
    (List.for_all
       (fun id -> Graph.kind g id = Eblock.Kind.Comm)
       (Graph.inner_nodes g));
  (* and therefore nothing to partition *)
  check Alcotest.int "paredown finds nothing" 0
    (Core.Solution.programmable_count
       (Core.Paredown.run g).Core.Paredown.solution)

let test_profile_all_wide () =
  let profile =
    {
      Randgen.Generator.default_profile with
      comm_probability = 0.0;
      wide_probability = 1.0;
    }
  in
  let g = generate ~profile ~seed:3 ~inner:10 () in
  check Alcotest.bool "every inner block has 3 inputs" true
    (List.for_all
       (fun id -> (Graph.descriptor g id).Eblock.Descriptor.n_inputs = 3)
       (Graph.inner_nodes g))

let test_worst_case_structure () =
  let g = Randgen.Generator.worst_case ~inner:6 in
  check Alcotest.int "inner" 6 (Graph.inner_count g);
  check Alcotest.int "sensors" 12 (List.length (Graph.sensors g));
  check Alcotest.int "outputs" 6 (List.length (Graph.primary_outputs g));
  let inner = Graph.inner_nodes g in
  let d = Netlist.Dense.of_graph g in
  (* every block fits alone... *)
  List.iter
    (fun id ->
      check Alcotest.bool
        (Printf.sprintf "%d fits alone" id)
        true
        (Core.Partition.fits_shape d Core.Shape.default
           (Node_id.Set.singleton id)))
    inner;
  (* ...but no pair forms a valid partition *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a < b then
            check Alcotest.bool
              (Printf.sprintf "{%d,%d} invalid" a b)
              false
              (Core.Partition.is_valid d
                 (Core.Partition.make
                    ~members:(Testlib.set [ a; b ])
                    ~shape:Core.Shape.default)))
        inner)
    inner

let prop_generated_valid =
  QCheck.Test.make ~name:"generated networks validate" ~count:200
    (Testlib.network_arbitrary ~max_inner:50 ()) (fun (_, _, g) ->
      Graph.validate g = Ok ())

let prop_generated_acyclic =
  QCheck.Test.make ~name:"generated networks are DAGs" ~count:100
    (Testlib.network_arbitrary ~max_inner:50 ()) (fun (_, _, g) ->
      Graph.is_acyclic g)

let prop_generated_simulable =
  QCheck.Test.make ~name:"generated networks simulate and settle" ~count:40
    (Testlib.network_arbitrary ~max_inner:20 ()) (fun (_, seed, g) ->
      let engine = Sim.Engine.create g in
      let script =
        Sim.Stimulus.random ~rng:(Prng.create seed)
          ~sensors:(Graph.sensors g) ~steps:10 ~spacing:30
      in
      List.length (Sim.Stimulus.settled_outputs engine script) = 10)

let () =
  Alcotest.run "randgen"
    [
      ( "generator",
        [
          Alcotest.test_case "exact inner count" `Quick
            test_exact_inner_count;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "bad size" `Quick test_rejects_bad_size;
          Alcotest.test_case "all-comm profile" `Quick test_profile_all_comm;
          Alcotest.test_case "all-wide profile" `Quick test_profile_all_wide;
        ] );
      ( "worst case",
        [ Alcotest.test_case "structure" `Quick test_worst_case_structure ] );
      ( "properties",
        Testlib.qtests
          [ prop_generated_valid; prop_generated_acyclic;
            prop_generated_simulable ] );
    ]

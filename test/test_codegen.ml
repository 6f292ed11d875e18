(* Tests for code generation: partition plans, merged programs, network
   replacement, C emission, and program-size estimation. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let check = Alcotest.check
let set = Testlib.set
let podium = Testlib.podium
let build g members = Codegen.Plan.build (Netlist.Dense.of_graph g) members

(* --- Plans ------------------------------------------------------------- *)

let test_level_order () =
  check (Alcotest.list Alcotest.int) "partition {6,8,9}" [ 6; 8; 9 ]
    (Codegen.Plan.level_order (Netlist.Dense.of_graph podium) (set [ 6; 8; 9 ]));
  check (Alcotest.list Alcotest.int) "partition {2,3,4,5}" [ 2; 3; 4; 5 ]
    (Codegen.Plan.level_order (Netlist.Dense.of_graph podium) (set [ 2; 3; 4; 5 ]))

let test_plan_pins_match_cut () =
  List.iter
    (fun members ->
      let plan = build podium members in
      check Alcotest.int "input pins"
        (Cut_oracle.inputs_used podium members)
        (Array.length plan.Codegen.Plan.input_pins);
      check Alcotest.int "output pins"
        (Cut_oracle.outputs_used podium members)
        (Array.length plan.Codegen.Plan.output_pins))
    [ set [ 2; 3; 4; 5 ]; set [ 6; 8; 9 ]; set [ 7; 8 ]; set [ 6; 9 ] ]

let test_plan_program_closed () =
  let plan = build podium (set [ 2; 3; 4; 5 ]) in
  let p = plan.Codegen.Plan.program in
  check (Alcotest.list Alcotest.string) "no free variables" []
    (Behavior.Ast.free_variables p);
  check Alcotest.bool "reads only bound input pins" true
    (Behavior.Ast.max_input_index p
     < Array.length plan.Codegen.Plan.input_pins);
  check Alcotest.bool "writes only bound output pins" true
    (Behavior.Ast.max_output_index p
     < Array.length plan.Codegen.Plan.output_pins)

let test_plan_errors () =
  let fails name f =
    match f () with
    | exception Codegen.Plan.Plan_error _ -> ()
    | _ -> Alcotest.failf "%s did not raise" name
  in
  fails "empty" (fun () -> build podium Node_id.Set.empty);
  fails "unknown node" (fun () -> build podium (set [ 99 ]));
  fails "sensor member" (fun () -> build podium (set [ 1; 2 ]));
  let doorbell = Designs.Library.doorbell_extender_1.Designs.Design.network in
  fails "comm member" (fun () -> build doorbell (set [ 2; 3 ]))

let test_descriptor_of_plan () =
  let plan = build podium (set [ 6; 8; 9 ]) in
  let d = Codegen.Plan.descriptor plan in
  check Alcotest.int "inputs" 2 d.Eblock.Descriptor.n_inputs;
  check Alcotest.int "outputs" 2 d.Eblock.Descriptor.n_outputs;
  check Alcotest.bool "programmable kind" true
    (Eblock.Kind.equal d.Eblock.Descriptor.kind Eblock.Kind.Programmable)

(* --- Replacement --------------------------------------------------------- *)

let paredown_replace g =
  let sol = (Core.Paredown.run g).Core.Paredown.solution in
  (Codegen.Replace.apply g sol, sol)

let test_replace_podium_structure () =
  let result, sol = paredown_replace podium in
  let g' = result.Codegen.Replace.network in
  check Alcotest.int "two programmable blocks" 2
    (List.length result.Codegen.Replace.programmable_ids);
  check Alcotest.int "inner after" 3 (Graph.inner_count g');
  check Alcotest.int "total inner metric agrees"
    (Core.Solution.total_inner_after podium sol)
    (Graph.inner_count g');
  (* interface nodes keep their ids *)
  check (Alcotest.list Alcotest.int) "sensors" (Graph.sensors podium)
    (Graph.sensors g');
  check (Alcotest.list Alcotest.int) "outputs"
    (Graph.primary_outputs podium) (Graph.primary_outputs g');
  Testlib.check_ok "still structurally valid"
    (Result.map_error (String.concat "; ") (Graph.validate g'))

let test_replace_equivalent () =
  let result, _ = paredown_replace podium in
  Testlib.check_ok "behaviourally equivalent"
    (Result.map_error
       (Format.asprintf "%a" Sim.Equiv.pp_mismatch)
       (Sim.Equiv.check_random ~reference:podium
          ~candidate:result.Codegen.Replace.network ~seed:17 ~steps:80))

let test_replace_overlap_rejected () =
  let shape = Core.Shape.default in
  let sol =
    Core.Solution.
      {
        partitions =
          [
            Core.Partition.make ~members:(set [ 2; 3; 4; 5 ]) ~shape;
            Core.Partition.make ~members:(set [ 3; 4; 5 ]) ~shape;
          ];
      }
  in
  match Codegen.Replace.apply podium sol with
  | exception Codegen.Replace.Replace_error _ -> ()
  | _ -> Alcotest.fail "overlapping partitions accepted"

let test_synthesize_convenience () =
  let result, pd = Codegen.Replace.synthesize podium in
  check Alcotest.int "same partitions" 2
    (Core.Solution.programmable_count pd.Core.Paredown.solution);
  check Alcotest.int "same networks" 3
    (Graph.inner_count result.Codegen.Replace.network)

(* --- C emission ------------------------------------------------------------ *)

let test_c_expr () =
  let open Behavior.Ast in
  check Alcotest.string "input macro" "EB_IN(0)" (Codegen.C_emit.expr (input 0));
  check Alcotest.string "nested" "EB_IN(0) && (!x)"
    (Codegen.C_emit.expr (input 0 &&& not_ (var "x")));
  check Alcotest.string "timer" "EB_TIMER_FIRED(2)"
    (Codegen.C_emit.expr (Timer_fired 2));
  check Alcotest.string "conditional" "(b ? 1 : 0)"
    (Codegen.C_emit.expr (If_expr (var "b", int_ 1, int_ 0)))

let test_c_program_structure () =
  let plan = build podium (set [ 2; 3; 4; 5 ]) in
  let text =
    Codegen.C_emit.program ~block_name:"test" ~n_inputs:1 ~n_outputs:2
      plan.Codegen.Plan.program
  in
  List.iter
    (fun needle ->
      check Alcotest.bool needle true (Testlib.contains text needle))
    [
      "void eblock_step(void)";
      "static unsigned char b2_prev = 0;";
      "EB_OUT(0";
      "EB_SET_TIMER(0, 30);";
      "EB_SET_TIMER(1, 60);";
      "#ifndef EB_IN";
    ];
  let count c =
    String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 text
  in
  check Alcotest.int "balanced braces" (count '{') (count '}');
  check Alcotest.int "balanced parens" (count '(') (count ')')

let test_c_compiles () =
  (* the emitted file must be a valid C translation unit; checked with the
     system compiler when one is available *)
  match
    List.find_opt
      (fun cc -> Sys.command (Printf.sprintf "command -v %s >/dev/null" cc) = 0)
      [ "cc"; "gcc"; "clang" ]
  with
  | None -> ()  (* no compiler in this environment; nothing to check *)
  | Some cc ->
    let dir = Filename.temp_file "paredown" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let counter = ref 0 in
    let compile plan =
      incr counter;
      let path = Filename.concat dir (Printf.sprintf "prog%d.c" !counter) in
      Codegen.C_emit.write_file path
        ~n_inputs:(Array.length plan.Codegen.Plan.input_pins)
        ~n_outputs:(Array.length plan.Codegen.Plan.output_pins)
        plan.Codegen.Plan.program;
      let status =
        Sys.command
          (Printf.sprintf "%s -std=c99 -Wall -Werror -c %s -o %s 2>/dev/null"
             cc (Filename.quote path)
             (Filename.quote (Filename.concat dir "prog.o")))
      in
      check Alcotest.int (path ^ " compiles cleanly") 0 status
    in
    (* every partition of every library design *)
    List.iter
      (fun d ->
        let g = d.Designs.Design.network in
        let sol = (Core.Paredown.run g).Core.Paredown.solution in
        List.iter
          (fun p -> compile (build g p.Core.Partition.members))
          sol.Core.Solution.partitions)
      Designs.Library.all;
    check Alcotest.bool "compiled a meaningful number" true (!counter >= 15)

(* --- Exact combinational verification ------------------------------------- *)

let test_verify_combinational () =
  let g = Designs.Library.any_window_open_alarm.Designs.Design.network in
  (match Codegen.Verify.check_partition g (set [ 5; 6; 7 ]) with
   | Codegen.Verify.Proven -> ()
   | v -> Alcotest.failf "or-tree not proven: %a" Codegen.Verify.pp_status v);
  (match Codegen.Verify.check_partition podium (set [ 6; 8 ]) with
   | Codegen.Verify.Proven -> ()
   | v ->
     Alcotest.failf "splitter+or not proven: %a" Codegen.Verify.pp_status v)

let test_verify_timer_partition_cosimulated () =
  (* node 2 of the podium partition uses timers, so no exact tier
     applies; the verdict must still be explicit evidence, not a skip *)
  match Codegen.Verify.check_partition podium (set [ 2; 3; 4; 5 ]) with
  | Codegen.Verify.Cosim_passed { scripts; checks } ->
    check Alcotest.bool "ran at least one script" true (scripts >= 1);
    check Alcotest.bool "ran at least one check" true (checks >= scripts)
  | v ->
    Alcotest.failf "expected Cosim_passed, got %a" Codegen.Verify.pp_status v

let test_verify_solution () =
  (* a purely combinational random population: every found partition is
     provable by enumeration *)
  let profile =
    {
      Randgen.Generator.default_profile with
      sequential_probability = 0.0;
    }
  in
  let rng = Prng.create 77 in
  for _ = 1 to 15 do
    let g =
      Randgen.Generator.generate ~profile ~rng:(Prng.split rng) ~inner:12 ()
    in
    let sol = (Core.Paredown.run g).Core.Paredown.solution in
    let report = Codegen.Verify.check_solution g sol in
    if not (Codegen.Verify.ok report) then
      Alcotest.failf "solution failed verification: %a" Codegen.Verify.pp_report
        report;
    check Alcotest.int "all partitions proven"
      (Core.Solution.programmable_count sol)
      (Codegen.Verify.tally report).Codegen.Verify.proven
  done

let test_verdict_rendering () =
  let text v = Format.asprintf "%a" Codegen.Verify.pp_status v in
  check Alcotest.bool "proven" true
    (Testlib.contains (text Codegen.Verify.Proven) "proven");
  check Alcotest.bool "bounded" true
    (Testlib.contains
       (text (Codegen.Verify.Bounded_equivalent { states = 4; depth = 3 }))
       "4 state");
  check Alcotest.bool "cosim" true
    (Testlib.contains
       (text (Codegen.Verify.Cosim_passed { scripts = 3; checks = 15 }))
       "co-simulation");
  check Alcotest.bool "skip reason" true
    (Testlib.contains (text (Codegen.Verify.Skipped "no sensors")) "no sensors");
  check Alcotest.bool "counterexample" true
    (Testlib.contains
       (text
          (Codegen.Verify.Failed
             (Codegen.Verify.Mismatch
                {
                  trail = [ [| true; false |] ];
                  pin = 1;
                  merged = Behavior.Ast.Bool true;
                  composed = Behavior.Ast.Bool false;
                })))
       "pin 1")

(* --- Size estimation ---------------------------------------------------------- *)

let test_size_estimates () =
  let small = Eblock.Catalog.not_gate.Eblock.Descriptor.behavior in
  let big =
    (build podium (set [ 2; 3; 4; 5 ])).Codegen.Plan.program
  in
  check Alcotest.bool "bigger program costs more" true
    (Codegen.Size.estimate_words big > Codegen.Size.estimate_words small);
  check Alcotest.bool "both fit the PIC" true
    (Codegen.Size.fits_pic16f628 small && Codegen.Size.fits_pic16f628 big)

let test_size_never_binding_on_library () =
  (* the paper's §3.3 claim, verified across every partition of every
     library design *)
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      List.iter
        (fun p ->
          let plan = build g p.Core.Partition.members in
          check Alcotest.bool
            (Printf.sprintf "%s fits" d.Designs.Design.name)
            true
            (Codegen.Size.fits_pic16f628 plan.Codegen.Plan.program))
        sol.Core.Solution.partitions)
    Designs.Library.all

(* --- Properties ------------------------------------------------------------------ *)

let prop_synthesis_equivalent =
  (* timing-sensitive designs (races and path-length hazards) have no
     well-defined settled behaviour to preserve — physical eBlocks resolve
     them nondeterministically — so they are skipped; see
     Sim.Equiv.timing_sensitive *)
  QCheck.Test.make
    ~name:"synthesised networks behave like the originals" ~count:25
    (Testlib.network_arbitrary ~max_inner:14 ()) (fun (_, seed, g) ->
      QCheck.assume
        (not (Sim.Equiv.timing_sensitive_random g ~seed ~steps:25));
      let result, _ = Codegen.Replace.synthesize g in
      match
        Sim.Equiv.check_random ~reference:g
          ~candidate:result.Codegen.Replace.network ~seed ~steps:25
      with
      | Ok () -> true
      | Error _ -> false)

(* A verifier gap, pinned (doc/verification.md, "Transient pulses"):
   on this random design PareDown merges {2,3,4,5}, where splitter2
   node 2 drives both inputs of xor2 node 4.  In the flat network the
   xor pulses for one event and trip node 6 latches the pulse; the
   merged block evaluates its members at once, so it never pulses.  The
   per-partition tiers compare settled pin values and miss it; the
   whole-network check that synth --verify runs first reports it, and
   the property above fails whenever it draws this design. *)
let test_transient_pulse_gap () =
  let g =
    Randgen.Generator.generate ~rng:(Prng.create 430208) ~inner:10 ()
  in
  let result, pd = Codegen.Replace.synthesize g in
  check Alcotest.bool "PareDown merges {2,3,4,5}" true
    (List.exists
       (fun p ->
         Node_id.Set.equal p.Core.Partition.members (set [ 2; 3; 4; 5 ]))
       pd.Core.Paredown.solution.Core.Solution.partitions);
  match
    Sim.Equiv.check_random ~reference:g
      ~candidate:result.Codegen.Replace.network ~seed:99 ~steps:60
  with
  | Ok () -> Alcotest.fail "the merged network now shows the latched pulse"
  | Error m ->
    check Alcotest.string "the latched trip is lost"
      "at time 18, output 17: reference shows true but candidate shows false"
      (Format.asprintf "%a" Sim.Equiv.pp_mismatch m)

let prop_synthesis_preserves_structure =
  QCheck.Test.make ~name:"synthesised networks stay valid DAGs" ~count:60
    (Testlib.network_arbitrary ~max_inner:25 ()) (fun (_, _, g) ->
      let result, pd = Codegen.Replace.synthesize g in
      let g' = result.Codegen.Replace.network in
      Graph.validate g' = Ok ()
      && Graph.inner_count g'
         = Core.Solution.total_inner_after g pd.Core.Paredown.solution)

let prop_combinational_merges_proven =
  (* every partition PareDown finds in a purely combinational population
     is exactly provable by input enumeration *)
  QCheck.Test.make ~name:"combinational merges proven by enumeration"
    ~count:30
    (QCheck.pair QCheck.(int_range 3 14) QCheck.(int_bound 1_000_000))
    (fun (inner, seed) ->
      let profile =
        {
          Randgen.Generator.default_profile with
          sequential_probability = 0.0;
        }
      in
      let g =
        Randgen.Generator.generate ~profile ~rng:(Prng.create seed) ~inner ()
      in
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      let report = Codegen.Verify.check_solution g sol in
      Codegen.Verify.ok report
      && (Codegen.Verify.tally report).Codegen.Verify.proven
         = Core.Solution.programmable_count sol)

let prop_merged_programs_fit =
  QCheck.Test.make ~name:"merged programs fit the PIC" ~count:60
    (Testlib.network_arbitrary ~max_inner:25 ()) (fun (_, _, g) ->
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      List.for_all
        (fun p ->
          Codegen.Size.fits_pic16f628
            (build g p.Core.Partition.members).Codegen.Plan.program)
        sol.Core.Solution.partitions)

let () =
  Alcotest.run "codegen"
    [
      ( "plan",
        [
          Alcotest.test_case "level order" `Quick test_level_order;
          Alcotest.test_case "pins match cut" `Quick test_plan_pins_match_cut;
          Alcotest.test_case "program closed" `Quick test_plan_program_closed;
          Alcotest.test_case "errors" `Quick test_plan_errors;
          Alcotest.test_case "descriptor" `Quick test_descriptor_of_plan;
        ] );
      ( "replace",
        [
          Alcotest.test_case "podium structure" `Quick
            test_replace_podium_structure;
          Alcotest.test_case "behaviour preserved" `Quick
            test_replace_equivalent;
          Alcotest.test_case "overlap rejected" `Quick
            test_replace_overlap_rejected;
          Alcotest.test_case "synthesize convenience" `Quick
            test_synthesize_convenience;
        ] );
      ( "c-emit",
        [
          Alcotest.test_case "expressions" `Quick test_c_expr;
          Alcotest.test_case "program structure" `Quick
            test_c_program_structure;
          Alcotest.test_case "compiles with cc" `Slow test_c_compiles;
        ] );
      ( "verify",
        [
          Alcotest.test_case "combinational proven" `Quick
            test_verify_combinational;
          Alcotest.test_case "timer partitions co-simulated" `Quick
            test_verify_timer_partition_cosimulated;
          Alcotest.test_case "whole solutions" `Quick test_verify_solution;
          Alcotest.test_case "verdict rendering" `Quick
            test_verdict_rendering;
          Alcotest.test_case "a merged block loses a transient pulse" `Quick
            test_transient_pulse_gap;
        ] );
      ( "size",
        [
          Alcotest.test_case "estimates" `Quick test_size_estimates;
          Alcotest.test_case "library never size-bound" `Quick
            test_size_never_binding_on_library;
        ] );
      ( "properties",
        Testlib.qtests
          [
            prop_synthesis_equivalent; prop_synthesis_preserves_structure;
            prop_merged_programs_fit; prop_combinational_merges_proven;
          ] );
    ]

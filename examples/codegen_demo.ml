(* Code generation tour (§3.3).

   Shows every stage the paper describes: level assignment, level-ordered
   tree merging, variable renaming, and the final C translation — plus the
   program-memory check backing the paper's "size is never the binding
   constraint" assumption, evaluated over every partition of every library
   design.

   Run with: dune exec examples/codegen_demo.exe *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let () = print_endline "=== Level assignment and merge order ==="

let network = Designs.Library.podium_timer_3.Designs.Design.network

let () =
  let levels = Graph.levels network in
  List.iter
    (fun id ->
      Format.printf "  block %d (%s): level %d@." id
        (Graph.descriptor network id).Eblock.Descriptor.name
        (Node_id.Map.find id levels))
    (Graph.inner_nodes network);
  let members = Node_id.set_of_list [ 6; 8; 9 ] in
  Format.printf "merge order for partition {6, 8, 9}: %a@."
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Node_id.pp)
    (Codegen.Plan.level_order (Netlist.Dense.of_graph network) members)

let () = print_endline "\n=== Merged syntax tree ==="

let plan =
  Codegen.Plan.build (Netlist.Dense.of_graph network)
    (Node_id.set_of_list [ 6; 8; 9 ])

let () =
  Format.printf "%a@." Behavior.Ast.pp_program plan.Codegen.Plan.program;
  Printf.printf "input pins: %d, output pins: %d\n"
    (Array.length plan.Codegen.Plan.input_pins)
    (Array.length plan.Codegen.Plan.output_pins)

let () = print_endline "\n=== C translation ==="

let () =
  print_string
    (Codegen.C_emit.program ~block_name:"podium timer partition"
       ~n_inputs:(Array.length plan.Codegen.Plan.input_pins)
       ~n_outputs:(Array.length plan.Codegen.Plan.output_pins)
       plan.Codegen.Plan.program)

let () = print_endline "\n=== Program-memory check across the library ==="

let () =
  let worst = ref 0 in
  List.iter
    (fun design ->
      let g = design.Designs.Design.network in
      let sol = (Core.Paredown.run g).Core.Paredown.solution in
      let d = Netlist.Dense.of_graph g in
      List.iter
        (fun p ->
          let plan = Codegen.Plan.build d p.Core.Partition.members in
          let words = Codegen.Size.estimate_words plan.Codegen.Plan.program in
          worst := max !worst words;
          assert (Codegen.Size.fits_pic16f628 plan.Codegen.Plan.program))
        sol.Core.Solution.partitions)
    Designs.Library.all;
  Printf.printf
    "largest merged program across all library partitions: ~%d words of \
     the PIC16F628's %d — the paper's assumption holds.\n"
    !worst Codegen.Size.pic16f628_words

(* Communication blocks as partition barriers.

   The two doorbell-extender designs show why the partitioner must treat
   communication blocks specially: they are inner nodes (they count
   towards network size) but cannot be absorbed into a programmable block,
   and any compute blocks separated by a radio hop cannot share a
   programmable block either — the candidate partition is not convex, so
   replacing it would wire the radio link into a loop.

   Run with: dune exec examples/doorbell_extender.exe *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let show design =
  let g = design.Designs.Design.network in
  Format.printf "=== %s ===@." design.Designs.Design.name;
  let r = Core.Paredown.run g in
  let sol = r.Core.Paredown.solution in
  Format.printf "inner blocks %d -> %d (%d programmable)@."
    (Graph.inner_count g)
    (Core.Solution.total_inner_after g sol)
    (Core.Solution.programmable_count sol)

let () =
  show Designs.Library.doorbell_extender_1;
  show Designs.Library.doorbell_extender_2

(* Demonstrate the convexity argument concretely on extender 2: the pulse
   generator (2) and the far-end prolong (7) both fit a 2x2 block on pin
   counts alone, but the path between them runs through the radio hops. *)
let () =
  let g = Designs.Library.doorbell_extender_2.Designs.Design.network in
  let d = Netlist.Dense.of_graph g in
  let pair = Node_id.set_of_list [ 2; 7 ] in
  Format.printf "@.candidate %a:@." Node_id.pp_set pair;
  let inputs_used, outputs_used = Core.Partition.pins_used d pair in
  Format.printf "  inputs used: %d, outputs used: %d (both fit a 2x2 block)@."
    inputs_used outputs_used;
  let p = Core.Partition.make ~members:pair ~shape:Core.Shape.default in
  (match Core.Partition.check d p with
   | Error reason ->
     Format.printf "  but: %a@." Core.Partition.pp_invalidity reason
   | Ok () -> assert false);
  (* And what would go wrong without the check: the rewritten network
     would contain a loop programmable -> radio -> programmable. *)
  let relaxed =
    { Core.Partition.default_config with require_convex = false }
  in
  assert (Core.Partition.is_valid ~config:relaxed d p);
  let sol = { Core.Solution.partitions = [ p ] } in
  let rewritten = Codegen.Replace.apply g sol in
  let g' = rewritten.Codegen.Replace.network in
  Format.printf "  forcing the replacement anyway: %a -> %s@." Graph.pp g'
    (if Graph.is_acyclic g' then "still acyclic (unexpected!)"
     else "the network now contains a loop, which eBlocks forbid")

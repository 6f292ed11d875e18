(* Core.Partition's pin and validity questions as they stood on the
   set-based cut model: answered over Node_id sets by Cut_oracle, not by
   Netlist.Dense, which the library and its searches use.  Tests check
   the searches' results and the library's Dense-based answers against
   these, so neither side checks itself. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Partition = Core.Partition
module Shape = Core.Shape
module Cut = Cut_oracle

let pins_used ?(config = Partition.default_config) g set =
  match config.Partition.pin_counting with
  | Partition.Per_edge -> (Cut.inputs_used g set, Cut.outputs_used g set)
  | Partition.Per_net ->
    (Cut.inputs_used_nets g set, Cut.outputs_used_nets g set)

let io_used ?config g set =
  let ins, outs = pins_used ?config g set in
  ins + outs

(* Partition.check's verdict, in the same order: eligibility, size,
   input pins, output pins, convexity. *)
let check ?(config = Partition.default_config) g
    { Partition.members; shape } =
  match Partition.members_eligible g members with
  | Error _ as e -> e
  | Ok () ->
    let size = Node_id.Set.cardinal members in
    if size < 2 then Error (Partition.Too_few_members size)
    else
      let used_in, used_out = pins_used ~config g members in
      if used_in > shape.Shape.inputs then
        Error
          (Partition.Too_many_inputs
             { used = used_in; available = shape.Shape.inputs })
      else if used_out > shape.Shape.outputs then
        Error
          (Partition.Too_many_outputs
             { used = used_out; available = shape.Shape.outputs })
      else if config.Partition.require_convex && not (Cut.is_convex g members)
      then Error Partition.Not_convex
      else Ok ()

(* Solution.check's verdict as a bool: every partition valid, no two
   sharing a member. *)
let valid_solution ?config g sol =
  let rec go seen = function
    | [] -> true
    | p :: rest ->
      Node_id.Set.disjoint seen p.Partition.members
      && check ?config g p = Ok ()
      && go (Node_id.Set.union seen p.Partition.members) rest
  in
  go Node_id.Set.empty sol.Core.Solution.partitions

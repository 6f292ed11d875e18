(* The exhaustive search as it ran before its feasibility cuts: the
   paper's bin-assignment DFS over the Dense view, with the block-count
   (or cost) bound as its only cut, and without metrics, journal events
   or a deadline.  Same branch order and strict-improvement rule as
   [Core.Exhaustive.run], so the library must return exactly this
   solution; test_exhaustive.ml diffs the two, and test_dense.ml pins
   this tree's work counters. *)

module Graph = Netlist.Graph
module Dense = Netlist.Dense
module Exhaustive = Core.Exhaustive
module Partition = Core.Partition
module Shape = Core.Shape
module Solution = Core.Solution

type result = {
  solution : Solution.t;
  nodes_explored : int;
  leaves_checked : int;
}

type bin = {
  set : Dense.set;
  mutable card : int;
  mutable ins : int;
  mutable outs : int;
}

let run ?(config = Exhaustive.default_config) g =
  let blocks = Array.of_list (Graph.partitionable_nodes g) in
  let n = Array.length blocks in
  let d = Dense.of_graph g in
  let block_idx = Array.map (Dense.index d) blocks in
  let fixed_inner = Graph.inner_count g - n in
  let fixed_cost =
    List.fold_left
      (fun acc id ->
        if Eblock.Kind.partitionable (Graph.kind g id) then acc
        else acc +. (Graph.descriptor g id).Eblock.Descriptor.cost)
      0. (Graph.inner_nodes g)
  in
  let block_cost id = (Graph.descriptor g id).Eblock.Descriptor.cost in
  let min_shape_cost =
    List.fold_left
      (fun acc s -> Float.min acc s.Shape.cost)
      infinity config.Exhaustive.shapes
  in
  let compare_solutions =
    match config.Exhaustive.objective with
    | Exhaustive.Fewest_blocks -> Solution.compare_quality g
    | Exhaustive.Lowest_cost -> Solution.compare_cost g
  in
  let nodes_explored = ref 0 in
  let leaves_checked = ref 0 in
  let best = ref Solution.empty in
  let best_total = ref (Solution.total_inner_after g Solution.empty) in
  let best_cost = ref (Solution.total_cost_after g Solution.empty) in
  let bins =
    Array.init (max 1 (n / 2)) (fun _ ->
        { set = Dense.empty_set d; card = 0; ins = 0; outs = 0 })
  in
  let max_bins = Array.length bins in
  let bin_add bin i =
    let d_in, d_out = Dense.addition_delta d bin.set i in
    Dense.add bin.set i;
    bin.card <- bin.card + 1;
    bin.ins <- bin.ins + d_in;
    bin.outs <- bin.outs + d_out
  in
  let bin_remove bin i =
    let d_in, d_out = Dense.removal_delta d bin.set i in
    Dense.remove bin.set i;
    bin.card <- bin.card - 1;
    bin.ins <- bin.ins + d_in;
    bin.outs <- bin.outs + d_out
  in
  let pc = config.Exhaustive.partition_config in
  let bin_pins bin =
    match pc.Partition.pin_counting with
    | Partition.Per_edge -> (bin.ins, bin.outs)
    | Partition.Per_net ->
      (Dense.inputs_used_nets d bin.set, Dense.outputs_used_nets d bin.set)
  in
  let bin_shape bin =
    let inputs_used, outputs_used = bin_pins bin in
    Shape.cheapest_fitting config.Exhaustive.shapes ~inputs_used
      ~outputs_used
  in
  let bin_valid bin =
    bin.card >= 2
    && bin_shape bin <> None
    && ((not pc.Partition.require_convex) || Dense.is_convex d bin.set)
  in
  let rec all_bins_valid b bins_open =
    b = bins_open || (bin_valid bins.(b) && all_bins_valid (b + 1) bins_open)
  in
  let consider_leaf bins_open =
    incr leaves_checked;
    if all_bins_valid 0 bins_open then begin
      let partitions =
        List.init bins_open (fun b ->
            let bin = bins.(b) in
            Partition.make
              ~members:(Dense.ids_of_set d bin.set)
              ~shape:(Option.get (bin_shape bin)))
      in
      let sol = { Solution.partitions } in
      if compare_solutions sol !best < 0 then begin
        best := sol;
        best_total := Solution.total_inner_after g sol;
        best_cost := Solution.total_cost_after g sol
      end
    end
  in
  let prunable bins_open unassigned unassigned_cost =
    config.Exhaustive.bound_pruning
    &&
    match config.Exhaustive.objective with
    | Exhaustive.Fewest_blocks ->
      fixed_inner + unassigned + bins_open > !best_total
    | Exhaustive.Lowest_cost ->
      fixed_cost +. unassigned_cost
      +. (float_of_int bins_open *. min_shape_cost)
      > !best_cost +. 1e-9
  in
  let rec assign i bins_open unassigned unassigned_cost =
    incr nodes_explored;
    if prunable bins_open unassigned unassigned_cost then ()
    else if i = n then consider_leaf bins_open
    else begin
      let idx = block_idx.(i) in
      assign (i + 1) bins_open (unassigned + 1)
        (unassigned_cost +. block_cost blocks.(i));
      for b = 0 to bins_open - 1 do
        bin_add bins.(b) idx;
        assign (i + 1) bins_open unassigned unassigned_cost;
        bin_remove bins.(b) idx
      done;
      if bins_open < max_bins then begin
        bin_add bins.(bins_open) idx;
        assign (i + 1) (bins_open + 1) unassigned unassigned_cost;
        bin_remove bins.(bins_open) idx
      end
    end
  in
  assign 0 0 0 0.;
  {
    solution = !best;
    nodes_explored = !nodes_explored;
    leaves_checked = !leaves_checked;
  }

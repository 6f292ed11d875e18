module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense

let m_runs = Obs.Metrics.counter "core.exhaustive.runs" ~doc:"searches performed"
let m_nodes =
  Obs.Metrics.counter "core.exhaustive.nodes_explored"
    ~doc:"search-tree nodes visited"
let m_leaves =
  Obs.Metrics.counter "core.exhaustive.leaves_checked"
    ~doc:"complete assignments validated"
let m_deadline_hits =
  Obs.Metrics.counter "core.exhaustive.deadline_hits"
    ~doc:"searches abandoned at the deadline"

type objective =
  | Fewest_blocks
  | Lowest_cost

type config = {
  shapes : Shape.t list;
  partition_config : Partition.config;
  bound_pruning : bool;
  objective : objective;
}

let default_config = {
  shapes = [ Shape.default ];
  partition_config = Partition.default_config;
  bound_pruning = true;
  objective = Fewest_blocks;
}

type outcome =
  | Optimal
  | Timed_out

type result = {
  solution : Solution.t;
  outcome : outcome;
  nodes_explored : int;
  leaves_checked : int;
}

exception Deadline

(* A bin over the compiled {!Dense} view.  [ins]/[outs] are maintained
   incrementally under per-edge pin counting (an O(degree) delta per
   add/remove), so leaf validation never recounts a cut from scratch.
   The candidates accepted are exactly those [Partition.is_valid] accepts
   — bin members come from [partitionable_nodes], so eligibility always
   holds and validity reduces to: at least two members, some shape fits,
   and (when required) convexity. *)
type bin = {
  set : Dense.set;
  mutable card : int;
  mutable ins : int;
  mutable outs : int;
}

let run ?(config = default_config) ?deadline_s g =
  Obs.Journal.with_span "exhaustive.run"
    ~args:[ ("inner", string_of_int (Graph.inner_count g)) ]
  @@ fun () ->
  let blocks = Array.of_list (Graph.partitionable_nodes g) in
  let n = Array.length blocks in
  let d = Dense.of_graph g in
  let block_idx = Array.map (Dense.index d) blocks in
  (* Inner blocks that can never be covered (e.g. communication blocks)
     appear in every solution's total (and cost). *)
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
      infinity config.shapes
  in
  let compare_solutions =
    match config.objective with
    | Fewest_blocks -> Solution.compare_quality g
    | Lowest_cost -> Solution.compare_cost g
  in
  let start = Obs.Clock.now_ns () in
  let journal = Obs.Journal.enabled () in
  if journal then
    Obs.Journal.emit
      (Obs.Journal.Run_started
         { phase = "exhaustive"; inner = Graph.inner_count g });
  let nodes_explored = ref 0 in
  let leaves_checked = ref 0 in
  let best = ref Solution.empty in
  let best_total = ref (Solution.total_inner_after g Solution.empty) in
  let best_cost = ref (Solution.total_cost_after g Solution.empty) in
  let timed_out = ref false in
  (* bins.(b) holds the members of bin b, for b < bins_open *)
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
  (* The maintained counts are the per-edge cut sizes; the ablation-only
     net counting recomputes at the leaf (its deltas do not decompose
     per edge). *)
  let bin_pins bin =
    match config.partition_config.Partition.pin_counting with
    | Partition.Per_edge -> (bin.ins, bin.outs)
    | Partition.Per_net ->
      ( Dense.inputs_used_nets d bin.set,
        Dense.outputs_used_nets d bin.set )
  in
  let bin_shape bin =
    let inputs_used, outputs_used = bin_pins bin in
    Shape.cheapest_fitting config.shapes ~inputs_used ~outputs_used
  in
  let bin_valid bin =
    bin.card >= 2
    && bin_shape bin <> None
    && ((not config.partition_config.Partition.require_convex)
        || Dense.is_convex d bin.set)
  in
  let check_deadline () =
    match deadline_s with
    | Some budget when !nodes_explored land 1023 = 0 ->
      if Obs.Clock.elapsed_s start > budget then raise Deadline
    | Some _ | None -> ()
  in
  let rec all_bins_valid b bins_open =
    b = bins_open || (bin_valid bins.(b) && all_bins_valid (b + 1) bins_open)
  in
  let consider_leaf bins_open unassigned =
    incr leaves_checked;
    ignore unassigned;
    if all_bins_valid 0 bins_open then begin
      (* Only now pay for materialising the solution. *)
      let partitions =
        List.init bins_open (fun b ->
            let bin = bins.(b) in
            let shape =
              match bin_shape bin with
              | Some s -> s
              | None -> assert false (* bin_valid just succeeded *)
            in
            Partition.make ~members:(Dense.ids_of_set d bin.set) ~shape)
      in
      let sol = { Solution.partitions } in
      if compare_solutions sol !best < 0 then begin
        best := sol;
        best_total := Solution.total_inner_after g sol;
        best_cost := Solution.total_cost_after g sol;
        if journal then
          Obs.Journal.emit
            (Obs.Journal.Exhaustive_best
               { total = !best_total; cost = !best_cost })
      end
    end
  in
  (* [unassigned_cost] tracks the summed catalogue cost of blocks left
     pre-defined so far; a branch's final cost is at least
     fixed + unassigned-so-far + one cheapest shape per open bin. *)
  let prunable bins_open unassigned unassigned_cost =
    config.bound_pruning
    &&
    match config.objective with
    | Fewest_blocks -> fixed_inner + unassigned + bins_open > !best_total
    | Lowest_cost ->
      fixed_cost +. unassigned_cost
      +. (float_of_int bins_open *. min_shape_cost)
      > !best_cost +. 1e-9
  in
  let rec assign i bins_open unassigned unassigned_cost =
    incr nodes_explored;
    check_deadline ();
    if prunable bins_open unassigned unassigned_cost then begin
      if journal then begin
        let bound, incumbent =
          match config.objective with
          | Fewest_blocks ->
            ( float_of_int (fixed_inner + unassigned + bins_open),
              float_of_int !best_total )
          | Lowest_cost ->
            ( fixed_cost +. unassigned_cost
              +. (float_of_int bins_open *. min_shape_cost),
              !best_cost )
        in
        Obs.Journal.emit
          (Obs.Journal.Pruned { depth = i; bins_open; bound; best = incumbent })
      end
    end
    else if i = n then consider_leaf bins_open unassigned
    else begin
      let idx = block_idx.(i) in
      (* Choice 1: leave the block pre-defined. *)
      assign (i + 1) bins_open (unassigned + 1)
        (unassigned_cost +. block_cost blocks.(i));
      (* Choice 2: join an open bin. *)
      for b = 0 to bins_open - 1 do
        bin_add bins.(b) idx;
        assign (i + 1) bins_open unassigned unassigned_cost;
        bin_remove bins.(b) idx
      done;
      (* Choice 3: open the next bin (empty bins are interchangeable, so
         only the first empty one is tried — the paper's pruning). *)
      if bins_open < max_bins then begin
        bin_add bins.(bins_open) idx;
        assign (i + 1) (bins_open + 1) unassigned unassigned_cost;
        bin_remove bins.(bins_open) idx
      end
    end
  in
  (match assign 0 0 0 0. with
   | () -> ()
   | exception Deadline ->
     timed_out := true;
     Obs.Metrics.incr m_deadline_hits;
     let budget_s = match deadline_s with Some b -> b | None -> 0. in
     if journal then
       Obs.Journal.emit
         (Obs.Journal.Deadline_expired
            { phase = "exhaustive"; budget_s; nodes = !nodes_explored });
     Obs.Journal.note_failure
       (Printf.sprintf "exhaustive deadline expired (budget %gs, %d nodes)"
          budget_s !nodes_explored));
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_nodes !nodes_explored;
  Obs.Metrics.add m_leaves !leaves_checked;
  {
    solution = !best;
    outcome = (if !timed_out then Timed_out else Optimal);
    nodes_explored = !nodes_explored;
    leaves_checked = !leaves_checked;
  }

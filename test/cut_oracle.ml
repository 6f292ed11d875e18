(* The set-based cut metrics that Netlist.Dense replaced, kept verbatim
   (module paths aside) as the reference for the library's one cut
   model: every pin count, crossing-edge list, border and convexity
   answer of Dense must equal this module's on the same member set
   (test_dense.ml), and test_netlist.ml pins the Figure 5 numbers on
   it. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let in_edges g set =
  Node_id.Set.fold
    (fun id acc ->
      let entering =
        List.filter
          (fun e -> not (Node_id.Set.mem e.Graph.src.Graph.node set))
          (Graph.fanin g id)
      in
      List.rev_append entering acc)
    set []
  |> List.sort Graph.compare_edge

let out_edges g set =
  Node_id.Set.fold
    (fun id acc ->
      let leaving =
        List.filter
          (fun e -> not (Node_id.Set.mem e.Graph.dst.Graph.node set))
          (Graph.fanout g id)
      in
      List.rev_append leaving acc)
    set []
  |> List.sort Graph.compare_edge

(* Count-only paths: no list is built or sorted ([fanin_unordered] /
   [fanout_unordered] expose the adjacency lists without the per-call
   port sort that [fanin]/[fanout] pay for their ordering guarantee).
   [io_used] makes one pass over the set counting both directions at
   once. *)

let inputs_used g set =
  Node_id.Set.fold
    (fun id acc ->
      List.fold_left
        (fun acc e ->
          if Node_id.Set.mem e.Graph.src.Graph.node set then acc else acc + 1)
        acc (Graph.fanin_unordered g id))
    set 0

let outputs_used g set =
  Node_id.Set.fold
    (fun id acc ->
      List.fold_left
        (fun acc e ->
          if Node_id.Set.mem e.Graph.dst.Graph.node set then acc else acc + 1)
        acc (Graph.fanout_unordered g id))
    set 0

let io_used g set =
  Node_id.Set.fold
    (fun id acc ->
      let acc =
        List.fold_left
          (fun acc e ->
            if Node_id.Set.mem e.Graph.src.Graph.node set then acc
            else acc + 1)
          acc (Graph.fanin_unordered g id)
      in
      List.fold_left
        (fun acc e ->
          if Node_id.Set.mem e.Graph.dst.Graph.node set then acc else acc + 1)
        acc (Graph.fanout_unordered g id))
    set 0

let distinct_src_ports edges =
  List.map (fun e -> e.Graph.src) edges
  |> List.sort_uniq compare
  |> List.length

let inputs_used_nets g set = distinct_src_ports (in_edges g set)
let outputs_used_nets g set = distinct_src_ports (out_edges g set)

let is_border g set id =
  let outside e_node = not (Node_id.Set.mem e_node set) in
  let all_inputs_outside =
    List.for_all
      (fun e -> outside e.Graph.src.Graph.node)
      (Graph.fanin_unordered g id)
  in
  let all_outputs_outside =
    List.for_all
      (fun e -> outside e.Graph.dst.Graph.node)
      (Graph.fanout_unordered g id)
  in
  all_inputs_outside || all_outputs_outside

let border_blocks g set =
  List.filter (is_border g set) (Node_id.Set.elements set)

(* Walk forward from the set's external successors while staying outside
   the set; convexity fails iff the walk re-enters the set. *)
let is_convex g set =
  let first_outside =
    List.map (fun e -> e.Graph.dst.Graph.node) (out_edges g set)
    |> List.sort_uniq Node_id.compare
  in
  let rec walk frontier visited =
    match frontier with
    | [] -> true
    | id :: rest ->
      if Node_id.Set.mem id set then false
      else if Node_id.Set.mem id visited then walk rest visited
      else walk (Graph.succs g id @ rest) (Node_id.Set.add id visited)
  in
  walk first_outside Node_id.Set.empty

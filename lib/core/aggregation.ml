module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type config = {
  shapes : Shape.t list;
  partition_config : Partition.config;
}

let default_config = {
  shapes = [ Shape.default ];
  partition_config = Partition.default_config;
}

let fits_any ~config d set =
  List.exists
    (fun shape ->
      Partition.fits_shape ~config:config.partition_config d shape set)
    config.shapes

let chosen_shape ~config d set =
  let inputs_used, outputs_used =
    Partition.pins_used ~config:config.partition_config d set
  in
  Shape.cheapest_fitting config.shapes ~inputs_used ~outputs_used

(* Eligible blocks adjacent to the cluster that are still available. *)
let frontier g available cluster =
  Node_id.Set.fold
    (fun id acc ->
      let neighbours = Graph.preds g id @ Graph.succs g id in
      List.fold_left
        (fun acc n ->
          if Node_id.Set.mem n available && not (Node_id.Set.mem n cluster)
          then Node_id.Set.add n acc
          else acc)
        acc neighbours)
    cluster Node_id.Set.empty

let run ?(config = default_config) g =
  let order = Graph.topological_order g in
  let d = Netlist.Dense.of_graph g in
  let eligible = Node_id.Set.of_list (Graph.partitionable_nodes g) in
  (* Grow a cluster from [seed], absorbing the first adjacent available
     block (in id order) that keeps the cluster fitting. *)
  let grow available seed =
    let rec extend cluster =
      let candidates = frontier g available cluster in
      let try_add id =
        let grown = Node_id.Set.add id cluster in
        if fits_any ~config d grown then Some grown else None
      in
      match
        List.find_map try_add (Node_id.Set.elements candidates)
      with
      | Some grown -> extend grown
      | None -> cluster
    in
    extend (Node_id.Set.singleton seed)
  in
  let rec sweep available partitions = function
    | [] -> List.rev partitions
    | seed :: rest ->
      if not (Node_id.Set.mem seed available) then
        sweep available partitions rest
      else if not (fits_any ~config d (Node_id.Set.singleton seed)) then
        (* cannot host even this block alone; leave it pre-defined *)
        sweep (Node_id.Set.remove seed available) partitions rest
      else begin
        let cluster = grow available seed in
        let available = Node_id.Set.diff available cluster in
        if Node_id.Set.cardinal cluster >= 2 then begin
          match chosen_shape ~config d cluster with
          | Some shape ->
            let p = Partition.make ~members:cluster ~shape in
            sweep available (p :: partitions) rest
          | None -> sweep available partitions rest
        end
        else sweep available partitions rest
      end
  in
  let seeds = List.filter (fun id -> Node_id.Set.mem id eligible) order in
  { Solution.partitions = sweep eligible [] seeds }

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t = {
  partitions : Partition.t list;
}

let empty = { partitions = [] }

let covered t =
  List.fold_left
    (fun acc p -> Node_id.Set.union acc p.Partition.members)
    Node_id.Set.empty t.partitions

let covered_count t = Node_id.Set.cardinal (covered t)

let programmable_count t = List.length t.partitions

let uncovered g t =
  let all_covered = covered t in
  List.fold_left
    (fun acc id ->
      if Node_id.Set.mem id all_covered then acc else Node_id.Set.add id acc)
    Node_id.Set.empty (Graph.inner_nodes g)

let total_inner_after g t =
  Node_id.Set.cardinal (uncovered g t) + programmable_count t

let total_cost_after g t =
  let remaining =
    Node_id.Set.fold
      (fun id acc ->
        acc +. (Graph.descriptor g id).Eblock.Descriptor.cost)
      (uncovered g t) 0.
  in
  List.fold_left
    (fun acc p -> acc +. p.Partition.shape.Shape.cost)
    remaining t.partitions

let compare_quality g a b =
  match Int.compare (total_inner_after g a) (total_inner_after g b) with
  | 0 ->
    (match Int.compare (covered_count b) (covered_count a) with
     | 0 -> Int.compare (programmable_count a) (programmable_count b)
     | c -> c)
  | c -> c

let compare_cost g a b =
  match Float.compare (total_cost_after g a) (total_cost_after g b) with
  | 0 -> compare_quality g a b
  | c -> c

let check ?config g t =
  (* one view for every partition, and none for an empty solution *)
  let d = lazy (Netlist.Dense.of_graph g) in
  let rec disjoint seen = function
    | [] -> Ok ()
    | p :: rest ->
      let overlap = Node_id.Set.inter seen p.Partition.members in
      if not (Node_id.Set.is_empty overlap) then
        Error
          (Format.asprintf "partitions overlap on %a" Node_id.pp_set overlap)
      else disjoint (Node_id.Set.union seen p.Partition.members) rest
  in
  let rec all_valid index = function
    | [] -> disjoint Node_id.Set.empty t.partitions
    | p :: rest ->
      (match Partition.check ?config (Lazy.force d) p with
       | Ok () -> all_valid (index + 1) rest
       | Error reason ->
         Error
           (Format.asprintf "partition %d (%a) invalid: %a" index
              Partition.pp p Partition.pp_invalidity reason))
  in
  all_valid 0 t.partitions

let pp ppf t =
  match t.partitions with
  | [] -> Format.pp_print_string ppf "no partitions"
  | ps ->
    Format.pp_print_list ~pp_sep:Format.pp_print_cut Partition.pp ppf ps

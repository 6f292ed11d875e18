module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let m_replaced =
  Obs.Metrics.counter "codegen.partitions_replaced"
    ~doc:"partitions rewritten into programmable blocks"

type t = {
  network : Graph.t;
  programmable_ids : Node_id.t list;
}

exception Replace_error of string

let error fmt = Format.kasprintf (fun msg -> raise (Replace_error msg)) fmt

let replace_one g index members =
  let plan =
    try Plan.build (Netlist.Dense.of_graph g) members with
    | Plan.Plan_error msg -> error "partition %d: %s" index msg
  in
  let descriptor = Plan.descriptor plan in
  let g = Node_id.Set.fold (fun id g -> Graph.remove_node g id) members g in
  let g, prog_id =
    Graph.add ~label:(Printf.sprintf "P%d" (index + 1)) g descriptor
  in
  let g =
    Array.to_list plan.Plan.input_pins
    |> List.mapi (fun pin (src, _) -> (pin, src))
    |> List.fold_left
         (fun g (pin, src) ->
           Graph.connect g
             ~src:(src.Graph.node, src.Graph.port)
             ~dst:(prog_id, pin))
         g
  in
  let g =
    Array.to_list plan.Plan.output_pins
    |> List.mapi (fun pin (_, dst) -> (pin, dst))
    |> List.fold_left
         (fun g (pin, dst) ->
           Graph.connect g
             ~src:(prog_id, pin)
             ~dst:(dst.Graph.node, dst.Graph.port))
         g
  in
  Obs.Metrics.incr m_replaced;
  (g, prog_id)

let apply g solution =
  Obs.Journal.with_span "codegen.replace"
    ~args:
      [ ("partitions",
         string_of_int (List.length solution.Core.Solution.partitions)) ]
  @@ fun () ->
  let rec rewrite g seen prog_ids index = function
    | [] -> { network = g; programmable_ids = List.rev prog_ids }
    | p :: rest ->
      let members = p.Core.Partition.members in
      let overlap = Node_id.Set.inter seen members in
      if not (Node_id.Set.is_empty overlap) then
        error "partition %d overlaps an earlier partition on %a" index
          Node_id.pp_set overlap;
      let g, prog_id = replace_one g index members in
      rewrite g
        (Node_id.Set.union seen members)
        (prog_id :: prog_ids) (index + 1) rest
  in
  rewrite g Node_id.Set.empty [] 0 solution.Core.Solution.partitions

let synthesize ?config g =
  let result = Core.Paredown.run ?config g in
  (apply g result.Core.Paredown.solution, result)

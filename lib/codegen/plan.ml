module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense

let m_plans = Obs.Metrics.counter "codegen.plans_built" ~doc:"merge plans built"
let m_merged =
  Obs.Metrics.counter "codegen.merged_nodes"
    ~doc:"pre-defined blocks folded into programmable blocks"

type t = {
  members : Node_id.t list;
  program : Behavior.Ast.program;
  input_pins : (Graph.endpoint * Graph.endpoint) array;
  output_pins : (Graph.endpoint * Graph.endpoint) array;
  output_init : Behavior.Ast.value array;
}

exception Plan_error of string

let error fmt = Format.kasprintf (fun msg -> raise (Plan_error msg)) fmt

let level_order d set =
  let levels = Dense.levels d in
  let level id = levels.(Dense.index d id) in
  Node_id.Set.elements set
  |> List.sort (fun a b ->
         match Int.compare (level a) (level b) with
         | 0 -> Node_id.compare a b
         | c -> c)

let wire_name id port = Printf.sprintf "w%d_%d" id port

(* Precomputed endpoint -> index table: [build] looks an endpoint up once
   per member input port, so the former list scan made plan construction
   quadratic in the cut size on input-heavy partitions. *)
let endpoint_table endpoints =
  let table = Hashtbl.create (List.length endpoints * 2) in
  List.iteri
    (fun i (ep : Graph.endpoint) ->
      if not (Hashtbl.mem table ep) then Hashtbl.add table ep i)
    endpoints;
  table

let index_of_endpoint what table (ep : Graph.endpoint) =
  match Hashtbl.find_opt table ep with
  | Some i -> i
  | None ->
    error "endpoint %d.%d not found among %s" ep.Graph.node ep.Graph.port what

let build d set =
  Obs.Journal.with_span "codegen.plan_build"
    ~args:[ ("members", string_of_int (Node_id.Set.cardinal set)) ]
  @@ fun () ->
  let g = Dense.graph d in
  if Node_id.Set.is_empty set then error "empty partition";
  Node_id.Set.iter
    (fun id ->
      if not (Graph.mem g id) then error "node %d is not in the network" id;
      if not (Eblock.Kind.partitionable (Graph.kind g id)) then
        error "node %d is not a partitionable compute block" id)
    set;
  let members = level_order d set in
  let s = Dense.set_of_ids d set in
  let in_edges = Dense.in_edges d s in
  let out_edges = Dense.out_edges d s in
  let in_edge_dsts = endpoint_table (List.map (fun e -> e.Graph.dst) in_edges) in
  let out_edges_indexed = List.mapi (fun j e -> (j, e)) out_edges in
  let member_of_id id =
    let d = Graph.descriptor g id in
    let open Eblock.Descriptor in
    let inputs =
      Array.init d.n_inputs (fun port ->
          match Graph.driver g id port with
          | None ->
            error "input port %d.%d is undriven; cannot merge" id port
          | Some src ->
            if Node_id.Set.mem src.Graph.node set then
              Behavior.Merge.Wire (wire_name src.Graph.node src.Graph.port)
            else
              (* one external pin per crossing connection: the pin for
                 this port is the in-edge ending at (id, port) *)
              Behavior.Merge.Ext
                (index_of_endpoint "the partition's input edges" in_edge_dsts
                   { Graph.node = id; port }))
    in
    let output_wires =
      Array.init d.n_outputs (fun port -> wire_name id port)
    in
    let output_exts =
      Array.init d.n_outputs (fun port ->
          List.filter_map
            (fun (j, e) ->
              if e.Graph.src = { Graph.node = id; port } then Some j
              else None)
            out_edges_indexed)
    in
    let output_init = Array.copy d.output_init in
    {
      Behavior.Merge.label = Printf.sprintf "b%d_" id;
      program = d.behavior;
      inputs;
      output_wires;
      output_exts;
      output_init;
    }
  in
  let merge_members = List.map member_of_id members in
  let program = Behavior.Merge.merge merge_members in
  Obs.Metrics.incr m_plans;
  Obs.Metrics.add m_merged (List.length members);
  let output_init =
    Array.of_list
      (List.map
         (fun e ->
           let src = e.Graph.src in
           let d = Graph.descriptor g src.Graph.node in
           d.Eblock.Descriptor.output_init.(src.Graph.port))
         out_edges)
  in
  {
    members;
    program;
    input_pins =
      Array.of_list (List.map (fun e -> (e.Graph.src, e.Graph.dst)) in_edges);
    output_pins =
      Array.of_list (List.map (fun e -> (e.Graph.src, e.Graph.dst)) out_edges);
    output_init;
  }

let descriptor ?label t =
  let n_inputs = Array.length t.input_pins in
  let n_outputs = Array.length t.output_pins in
  let name =
    match label with
    | Some l -> l
    | None -> Printf.sprintf "prog%dx%d" n_inputs n_outputs
  in
  Eblock.Catalog.programmable ~n_inputs ~n_outputs ~name
    ~output_init:t.output_init t.program

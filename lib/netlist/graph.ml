type endpoint = {
  node : Node_id.t;
  port : int;
}

type edge = {
  src : endpoint;
  dst : endpoint;
}

type node = {
  id : Node_id.t;
  descriptor : Eblock.Descriptor.t;
  label : string;
}

type t = {
  nodes : node Node_id.Map.t;
  fanin_map : edge list Node_id.Map.t;
  fanout_map : edge list Node_id.Map.t;
}

let compare_edge (a : edge) (b : edge) = compare a b

let pp_edge ppf { src; dst } =
  Format.fprintf ppf "%d.%d->%d.%d" src.node src.port dst.node dst.port

let edge_to_string e = Format.asprintf "%a" pp_edge e

exception Structural_error of string

let error fmt =
  Format.kasprintf (fun msg -> raise (Structural_error msg)) fmt

let empty = {
  nodes = Node_id.Map.empty;
  fanin_map = Node_id.Map.empty;
  fanout_map = Node_id.Map.empty;
}

let mem g id = Node_id.Map.mem id g.nodes

let node g id =
  match Node_id.Map.find_opt id g.nodes with
  | Some n -> n
  | None -> error "unknown node %d" id

let descriptor g id = (node g id).descriptor
let kind g id = (descriptor g id).Eblock.Descriptor.kind

let fresh_id g =
  match Node_id.Map.max_binding_opt g.nodes with
  | None -> 1
  | Some (max_id, _) -> max_id + 1

let add ?id ?label g descriptor =
  let id = match id with Some id -> id | None -> fresh_id g in
  if Node_id.Map.mem id g.nodes then error "duplicate node id %d" id;
  let label = match label with Some l -> l | None -> string_of_int id in
  let n = { id; descriptor; label } in
  ({ g with nodes = Node_id.Map.add id n g.nodes }, id)

let edge_list map id =
  match Node_id.Map.find_opt id map with Some l -> l | None -> []

let fanin_unordered g id = edge_list g.fanin_map id
let fanout_unordered g id = edge_list g.fanout_map id

let fanin g id =
  edge_list g.fanin_map id
  |> List.sort (fun e1 e2 -> Int.compare e1.dst.port e2.dst.port)

let fanout g id =
  let by_target e1 e2 =
    match Int.compare e1.src.port e2.src.port with
    | 0 ->
      (match Node_id.compare e1.dst.node e2.dst.node with
       | 0 -> Int.compare e1.dst.port e2.dst.port
       | c -> c)
    | c -> c
  in
  List.sort by_target (edge_list g.fanout_map id)

let driver g id port =
  List.find_opt (fun e -> e.dst.port = port) (edge_list g.fanin_map id)
  |> Option.map (fun e -> e.src)

let connect g ~src:(src_node, src_port) ~dst:(dst_node, dst_port) =
  let src_desc = descriptor g src_node in
  let dst_desc = descriptor g dst_node in
  if src_port < 0 || src_port >= src_desc.Eblock.Descriptor.n_outputs then
    error "node %d (%s) has no output port %d"
      src_node src_desc.Eblock.Descriptor.name src_port;
  if dst_port < 0 || dst_port >= dst_desc.Eblock.Descriptor.n_inputs then
    error "node %d (%s) has no input port %d"
      dst_node dst_desc.Eblock.Descriptor.name dst_port;
  if driver g dst_node dst_port <> None then
    error "input port %d.%d already has a driver" dst_node dst_port;
  let e = {
    src = { node = src_node; port = src_port };
    dst = { node = dst_node; port = dst_port };
  }
  in
  let cons_edge map id =
    Node_id.Map.update id
      (function Some l -> Some (e :: l) | None -> Some [ e ])
      map
  in
  {
    g with
    fanin_map = cons_edge g.fanin_map dst_node;
    fanout_map = cons_edge g.fanout_map src_node;
  }

let remove_edge g e =
  let drop map id =
    Node_id.Map.update id
      (function
        | Some l ->
          (match List.filter (fun e' -> e' <> e) l with
           | [] -> None
           | l' -> Some l')
        | None -> None)
      map
  in
  {
    g with
    fanin_map = drop g.fanin_map e.dst.node;
    fanout_map = drop g.fanout_map e.src.node;
  }

let remove_node g id =
  let touching = edge_list g.fanin_map id @ edge_list g.fanout_map id in
  let g = List.fold_left remove_edge g touching in
  { g with nodes = Node_id.Map.remove id g.nodes }

let node_ids g = Node_id.Map.bindings g.nodes |> List.map fst
let node_count g = Node_id.Map.cardinal g.nodes

let edges g =
  Node_id.Map.fold (fun _ l acc -> List.rev_append l acc) g.fanout_map []
  |> List.sort compare

let edge_count g =
  Node_id.Map.fold (fun _ l acc -> acc + List.length l) g.fanout_map 0

let in_degree g id = List.length (edge_list g.fanin_map id)
let out_degree g id = List.length (edge_list g.fanout_map id)

let distinct_nodes endpoints =
  List.sort_uniq Node_id.compare endpoints

let preds g id =
  distinct_nodes (List.map (fun e -> e.src.node) (edge_list g.fanin_map id))

let succs g id =
  distinct_nodes (List.map (fun e -> e.dst.node) (edge_list g.fanout_map id))

let ids_with_kind g want =
  Node_id.Map.fold
    (fun id n acc ->
      if Eblock.Kind.equal n.descriptor.Eblock.Descriptor.kind want
      then id :: acc
      else acc)
    g.nodes []
  |> List.rev

let sensors g = ids_with_kind g Eblock.Kind.Sensor
let primary_outputs g = ids_with_kind g Eblock.Kind.Output

let inner_nodes g =
  Node_id.Map.fold
    (fun id n acc ->
      if Eblock.Kind.is_inner n.descriptor.Eblock.Descriptor.kind
      then id :: acc
      else acc)
    g.nodes []
  |> List.rev

let partitionable_nodes g =
  Node_id.Map.fold
    (fun id n acc ->
      if Eblock.Kind.partitionable n.descriptor.Eblock.Descriptor.kind
      then id :: acc
      else acc)
    g.nodes []
  |> List.rev

let inner_count g = List.length (inner_nodes g)

let total_cost g =
  Node_id.Map.fold
    (fun _ n acc -> acc +. n.descriptor.Eblock.Descriptor.cost)
    g.nodes 0.

(* Kahn's algorithm; deterministic because ready nodes are kept sorted. *)
let topological_order g =
  let in_deg = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace in_deg id (in_degree g id)) (node_ids g);
  let ready =
    List.filter (fun id -> in_degree g id = 0) (node_ids g)
  in
  let rec drain ready acc seen =
    match ready with
    | [] ->
      if seen <> node_count g then error "graph contains a cycle"
      else List.rev acc
    | id :: rest ->
      let newly_ready =
        List.filter_map
          (fun succ ->
            let d = Hashtbl.find in_deg succ - 1 in
            Hashtbl.replace in_deg succ d;
            if d = 0 then Some succ else None)
          (List.map (fun e -> e.dst.node) (edge_list g.fanout_map id))
      in
      let ready' =
        List.merge Node_id.compare rest
          (List.sort Node_id.compare newly_ready)
      in
      drain ready' (id :: acc) (seen + 1)
  in
  drain ready [] 0

let is_acyclic g =
  match topological_order g with
  | (_ : Node_id.t list) -> true
  | exception Structural_error _ -> false

let levels g =
  let order = topological_order g in
  List.fold_left
    (fun acc id ->
      let from_preds =
        List.fold_left
          (fun best e ->
            match Node_id.Map.find_opt e.src.node acc with
            | Some l -> max best (l + 1)
            | None -> best)
          0
          (edge_list g.fanin_map id)
      in
      Node_id.Map.add id from_preds acc)
    Node_id.Map.empty order

let level g id =
  match Node_id.Map.find_opt id (levels g) with
  | Some l -> l
  | None -> error "unknown node %d" id

let reachable g ~from =
  let rec walk frontier visited =
    match frontier with
    | [] -> visited
    | id :: rest ->
      let next =
        List.filter
          (fun s -> not (Node_id.Set.mem s visited))
          (succs g id)
      in
      let visited =
        List.fold_left (fun v s -> Node_id.Set.add s v) visited next
      in
      walk (next @ rest) visited
  in
  walk (Node_id.Set.elements from) Node_id.Set.empty

let validate g =
  let problems = ref [] in
  let problem fmt =
    Format.kasprintf (fun msg -> problems := msg :: !problems) fmt
  in
  Node_id.Map.iter
    (fun id n ->
      let d = n.descriptor in
      let open Eblock in
      (match d.Descriptor.kind with
       | Kind.Sensor ->
         if in_degree g id > 0 then
           problem "sensor %d has incoming edges" id
       | Kind.Output ->
         if out_degree g id > 0 then
           problem "primary output %d has outgoing edges" id
       | Kind.Compute | Kind.Comm | Kind.Programmable -> ());
      (match d.Descriptor.kind with
       | Kind.Sensor -> ()
       | Kind.Output | Kind.Compute | Kind.Comm | Kind.Programmable ->
         for port = 0 to d.Descriptor.n_inputs - 1 do
           if driver g id port = None then
             problem "input port %d.%d is not driven" id port
         done))
    g.nodes;
  if sensors g = [] then problem "network has no sensor block";
  if primary_outputs g = [] then problem "network has no output block";
  if not (is_acyclic g) then problem "network contains a loop";
  match !problems with
  | [] -> Ok ()
  | ps -> Error (List.rev ps)

let pp ppf g =
  Format.fprintf ppf "network: %d nodes (%d inner), %d edges"
    (node_count g) (inner_count g) (edge_count g)

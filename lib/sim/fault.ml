module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type edge_fault = {
  drop : float;
  duplicate : float;
  corrupt : float;
  jitter : int;
  dies_at : int option;
}

let max_jitter = 255

let no_edge_fault =
  { drop = 0.; duplicate = 0.; corrupt = 0.; jitter = 0; dies_at = None }

type stuck = {
  port : int;
  value : Behavior.Ast.value;
  from : int;
}

type node_fault = {
  reset_at : int list;
  stuck : stuck list;
}

let no_node_fault = { reset_at = []; stuck = [] }

type plan = {
  seed : int;
  default_edge : edge_fault;
  edge_overrides : (Graph.edge * edge_fault) list;
  node_faults : (Node_id.t * node_fault) list;
}

let none =
  {
    seed = 0;
    default_edge = no_edge_fault;
    edge_overrides = [];
    node_faults = [];
  }

let edge_fault_trivial f =
  f.drop <= 0. && f.duplicate <= 0. && f.corrupt <= 0. && f.jitter <= 0
  && f.dies_at = None

let node_fault_trivial f = f.reset_at = [] && f.stuck = []

let is_trivial p =
  edge_fault_trivial p.default_edge
  && List.for_all (fun (_, f) -> edge_fault_trivial f) p.edge_overrides
  && List.for_all (fun (_, f) -> node_fault_trivial f) p.node_faults

let drop_all ?(seed = 1) drop =
  { none with seed; default_edge = { no_edge_fault with drop } }

let degrade_all ?(seed = 1) ?(drop = 0.) ?(duplicate = 0.) ?(corrupt = 0.)
    ?(jitter = 0) () =
  {
    none with
    seed;
    default_edge = { drop; duplicate; corrupt; jitter; dies_at = None };
  }

type stats = {
  drops : int;
  duplicates : int;
  corruptions : int;
  jittered : int;
  dead_link_losses : int;
  resets : int;
  stuck_overrides : int;
}

let zero =
  {
    drops = 0;
    duplicates = 0;
    corruptions = 0;
    jittered = 0;
    dead_link_losses = 0;
    resets = 0;
    stuck_overrides = 0;
  }

let merge a b =
  {
    drops = a.drops + b.drops;
    duplicates = a.duplicates + b.duplicates;
    corruptions = a.corruptions + b.corruptions;
    jittered = a.jittered + b.jittered;
    dead_link_losses = a.dead_link_losses + b.dead_link_losses;
    resets = a.resets + b.resets;
    stuck_overrides = a.stuck_overrides + b.stuck_overrides;
  }

let counts s =
  [ s.drops; s.duplicates; s.corruptions; s.jittered; s.dead_link_losses;
    s.resets; s.stuck_overrides ]

let total s = List.fold_left ( + ) 0 (counts s)

let resets p =
  List.concat_map
    (fun (id, f) -> List.map (fun t -> (id, t)) f.reset_at)
    p.node_faults

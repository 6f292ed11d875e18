module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(* Global counters complementing the per-run {!stats}: visible in
   --metrics output alongside the other sim.* work counters. *)
let m_drops = Obs.Metrics.counter "sim.fault.drops" ~doc:"packets dropped"
let m_duplicates =
  Obs.Metrics.counter "sim.fault.duplicates" ~doc:"packets duplicated"
let m_corruptions =
  Obs.Metrics.counter "sim.fault.corruptions" ~doc:"packet values corrupted"
let m_jittered =
  Obs.Metrics.counter "sim.fault.jittered" ~doc:"deliveries jitter-delayed"
let m_dead =
  Obs.Metrics.counter "sim.fault.dead_link_losses"
    ~doc:"packets lost on a dead link"
let m_resets =
  Obs.Metrics.counter "sim.fault.resets" ~doc:"spurious block resets"
let m_stuck =
  Obs.Metrics.counter "sim.fault.stuck_overrides"
    ~doc:"output presentations overridden by stuck-at"

type edge_fault = {
  drop : float;
  duplicate : float;
  corrupt : float;
  jitter : int;
  dies_at : int option;
}

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

let zero_stats =
  {
    drops = 0;
    duplicates = 0;
    corruptions = 0;
    jittered = 0;
    dead_link_losses = 0;
    resets = 0;
    stuck_overrides = 0;
  }

let zero = zero_stats

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

let total s =
  s.drops + s.duplicates + s.corruptions + s.jittered + s.dead_link_losses
  + s.resets + s.stuck_overrides

type runtime = {
  rng : Prng.t;
  default_edge : edge_fault;
  overrides : (Graph.edge, edge_fault) Hashtbl.t;
  stuck_tbl : (Node_id.t, stuck list) Hashtbl.t;
  mutable stats : stats;
}

let start p =
  let overrides = Hashtbl.create (List.length p.edge_overrides) in
  List.iter (fun (e, f) -> Hashtbl.replace overrides e f) p.edge_overrides;
  let stuck_tbl = Hashtbl.create (List.length p.node_faults) in
  List.iter
    (fun (id, f) -> if f.stuck <> [] then Hashtbl.replace stuck_tbl id f.stuck)
    p.node_faults;
  {
    rng = Prng.create p.seed;
    default_edge = p.default_edge;
    overrides;
    stuck_tbl;
    stats = zero_stats;
  }

let resets p =
  List.concat_map
    (fun (id, f) -> List.map (fun t -> (id, t)) f.reset_at)
    p.node_faults

let fault_for rt e =
  match Hashtbl.find_opt rt.overrides e with
  | Some f -> f
  | None -> rt.default_edge

(* Each decision draws from the stream only when its probability is
   nonzero, so a faultless edge costs no draws and the empty plan
   perturbs nothing. *)
let strikes rt p = p > 0. && Prng.float rt.rng 1.0 < p

let corrupt_value rt = function
  | Behavior.Ast.Bool b -> Behavior.Ast.Bool (not b)
  | Behavior.Ast.Int n -> Behavior.Ast.Int (n lxor (1 lsl Prng.int rt.rng 8))

let jitter_draw rt f =
  if f.jitter <= 0 then 0
  else begin
    let extra = Prng.int rt.rng (f.jitter + 1) in
    if extra > 0 then begin
      rt.stats <- { rt.stats with jittered = rt.stats.jittered + 1 };
      Obs.Metrics.incr m_jittered
    end;
    extra
  end

type strike = {
  s_dropped : bool;
  s_duplicated : bool;
  s_corrupted : bool;
  s_jittered : int;
  s_dead : bool;
}

let no_strike =
  {
    s_dropped = false;
    s_duplicated = false;
    s_corrupted = false;
    s_jittered = 0;
    s_dead = false;
  }

let strike_total s =
  Bool.to_int s.s_dropped + Bool.to_int s.s_duplicated
  + Bool.to_int s.s_corrupted + s.s_jittered + Bool.to_int s.s_dead

let on_send rt ~time e v =
  let f = fault_for rt e in
  let dead = match f.dies_at with Some t -> time >= t | None -> false in
  if dead then begin
    rt.stats <-
      { rt.stats with dead_link_losses = rt.stats.dead_link_losses + 1 };
    Obs.Metrics.incr m_dead;
    ([], { no_strike with s_dead = true })
  end
  else if strikes rt f.drop then begin
    rt.stats <- { rt.stats with drops = rt.stats.drops + 1 };
    Obs.Metrics.incr m_drops;
    ([], { no_strike with s_dropped = true })
  end
  else begin
    let corrupted = strikes rt f.corrupt in
    let v =
      if corrupted then begin
        rt.stats <- { rt.stats with corruptions = rt.stats.corruptions + 1 };
        Obs.Metrics.incr m_corruptions;
        corrupt_value rt v
      end
      else v
    in
    (* Draw order matters for replay: first jitter, then the duplicate
       decision, then the duplicate's jitter — exactly as before the
       strike record existed. *)
    let j1 = jitter_draw rt f in
    if strikes rt f.duplicate then begin
      rt.stats <- { rt.stats with duplicates = rt.stats.duplicates + 1 };
      Obs.Metrics.incr m_duplicates;
      let j2 = jitter_draw rt f in
      ( [ (j1, v); (j2, v) ],
        {
          no_strike with
          s_duplicated = true;
          s_corrupted = corrupted;
          s_jittered = Bool.to_int (j1 > 0) + Bool.to_int (j2 > 0);
        } )
    end
    else
      ( [ (j1, v) ],
        {
          no_strike with
          s_corrupted = corrupted;
          s_jittered = Bool.to_int (j1 > 0);
        } )
  end

let stuck_value rt ~time id ~port v =
  match Hashtbl.find_opt rt.stuck_tbl id with
  | None -> v
  | Some stucks ->
    (match
       List.find_opt (fun s -> s.port = port && time >= s.from) stucks
     with
     | None -> v
     | Some s ->
       if not (Behavior.Ast.equal_value s.value v) then begin
         rt.stats <-
           { rt.stats with stuck_overrides = rt.stats.stuck_overrides + 1 };
         Obs.Metrics.incr m_stuck
       end;
       s.value)

let note_reset rt =
  rt.stats <- { rt.stats with resets = rt.stats.resets + 1 };
  Obs.Metrics.incr m_resets

let stats rt = rt.stats

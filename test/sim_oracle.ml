(* The interpreted simulation kernel that shipped beside the compiled
   one in Sim.Engine, kept verbatim as a differential oracle: behaviours
   run through the tree-walking Eval_oracle on every activation, and
   events are ordered by a functional map.  The public functions at the
   bottom are the interpreter's branches of the engine API it was
   selected through.  It bumps the same sim.* metrics (registration is
   by name) and raises the real Sim.Engine.Event_limit_exceeded and
   Behavior.Compile.Runtime_error, so test_kernel.ml can hold every
   observable of Sim.Engine against it, error surfaces included. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Fault = Sim.Fault
module Telemetry = Sim.Telemetry

let m_events =
  Obs.Metrics.counter "sim.events_processed" ~doc:"queue events dispatched"
let m_activations =
  Obs.Metrics.counter "sim.activations" ~doc:"block behaviour evaluations"
let m_packets =
  Obs.Metrics.counter "sim.packets_sent"
    ~doc:"packets sent on output change (the power proxy)"
let m_deliveries =
  Obs.Metrics.counter "sim.packets_delivered" ~doc:"Deliver events consumed"
let m_settles =
  Obs.Metrics.counter "sim.settles" ~doc:"settle calls completed"
let m_settle_iterations =
  Obs.Metrics.counter "sim.settle_iterations"
    ~doc:"events drained across all settles"
let h_settle_ns =
  Obs.Metrics.histogram "sim.settle_ns" ~doc:"settle wall time"
let h_settle_events =
  Obs.Metrics.histogram "sim.settle_events" ~doc:"events drained per settle"

type value = Behavior.Ast.value

type tie_order = Sim.Engine.tie_order =
  | Fifo
  | Lifo
  | Shuffled of int

let wire_delay = Sim.Engine.wire_delay

let dummy_value = Behavior.Ast.Bool false

(* ------------------------------------------------------------------ *)
(* Output trace: a growable flat buffer instead of a cons list, so
   recording a change is three array writes and [trace] builds its
   chronological list directly (no O(n) reverse of a newest-first
   list). *)

module Tbuf = struct
  type t = {
    mutable times : int array;
    mutable nodes : Node_id.t array;
    mutable vals : value array;
    mutable len : int;
  }

  let create () =
    {
      times = Array.make 16 0;
      nodes = Array.make 16 0;
      vals = Array.make 16 dummy_value;
      len = 0;
    }

  let push b ~time node v =
    let cap = Array.length b.times in
    if b.len = cap then begin
      let ncap = 2 * cap in
      let grow a zero =
        let a' = Array.make ncap zero in
        Array.blit a 0 a' 0 cap;
        a'
      in
      b.times <- grow b.times 0;
      b.nodes <- grow b.nodes 0;
      b.vals <- grow b.vals dummy_value
    end;
    b.times.(b.len) <- time;
    b.nodes.(b.len) <- node;
    b.vals.(b.len) <- v;
    b.len <- b.len + 1

  let to_list b =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) ((b.times.(i), b.nodes.(i), b.vals.(i)) :: acc)
    in
    go (b.len - 1) []
end

(* ================================================================== *)
(* Interpreted kernel — the oracle.  Walks [Behavior.Ast] through
   [Eval_oracle] on every activation and orders events with a
   functional map; kept verbatim-simple so the compiled kernel below
   can be property-tested byte-identical against it. *)

type runtime = {
  mutable env : Eval_oracle.env;
      (* replaced wholesale on a spurious reset (fault injection) *)
  input_latch : value array;
  output_latch : value array;
  timer_gen : int array;
      (* per timer index: generation of the latest arming; expiry events
         from superseded generations are ignored.  Sized from the
         behaviour's largest timer index, so the common timer-free block
         carries the shared zero-length array and pays nothing. *)
}

type event =
  | Deliver of Graph.edge * value
  | Timer_expiry of Node_id.t * int * int  (* node, timer index, generation *)
  | Sensor_change of Node_id.t * bool
  | Fault_reset of Node_id.t  (* spurious reset from the fault plan *)

module Queue_key = struct
  type t = int * int * int  (* time, priority, unique counter *)

  let compare = compare
end

module Event_queue = Map.Make (Queue_key)

type interp = {
  graph : Graph.t;
  states : runtime Node_id.Map.t;
  i_tie_order : tie_order;
  i_tie_rng : Prng.t option;
  i_edge_delay : Graph.edge -> int;
  i_faults : Fault.runtime option;
      (* None when no plan was armed: the zero-cost path *)
  i_telemetry : Telemetry.t option;
      (* same pattern: None means every hook below is one branch *)
  mutable queue : event Event_queue.t;
  mutable depth : int;  (* cardinality of [queue], maintained in O(1) *)
  mutable i_seq : int;
  mutable i_clock : int;
  mutable i_activations : int;
  mutable i_packets : int;
  mutable i_last_active : Node_id.t option;
  i_trace : Tbuf.t;
}

let runtime_of_node g id =
  let d = Graph.descriptor g id in
  let open Eblock.Descriptor in
  let input_latch =
    Array.init d.n_inputs (fun port ->
        match Graph.driver g id port with
        | Some src ->
          let src_desc = Graph.descriptor g src.Graph.node in
          src_desc.output_init.(src.Graph.port)
        | None -> Behavior.Ast.Bool false)
  in
  let n_timers = Behavior.Ast.max_timer_index d.behavior + 1 in
  {
    env = Eval_oracle.init d.behavior;
    input_latch;
    output_latch = Array.copy d.output_init;
    timer_gen = (if n_timers = 0 then [||] else Array.make n_timers 0);
  }

let istate t id =
  match Node_id.Map.find_opt id t.states with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" id)

let event_node = function
  | Deliver (e, _) -> e.Graph.dst.Graph.node
  | Timer_expiry (id, _, _) | Sensor_change (id, _) | Fault_reset id -> id

let ischedule t ~time event =
  (* The priority orders same-time events: scheduling order for Fifo,
     reversed for Lifo, seeded-random for Shuffled.  Perturbing it changes
     exactly the packet races whose outcome the network does not actually
     define (see {!tie_order}). *)
  (match t.i_telemetry with
   | None -> ()
   | Some tel -> Telemetry.note_scheduled tel (event_node event));
  t.i_seq <- t.i_seq + 1;
  let priority =
    match t.i_tie_order, t.i_tie_rng with
    | Fifo, _ | (Lifo | Shuffled _), None -> t.i_seq
    | Lifo, _ -> -t.i_seq
    | Shuffled _, Some rng -> Prng.int rng 1_000_000_000
  in
  t.queue <- Event_queue.add (time, priority, t.i_seq) event t.queue;
  t.depth <- t.depth + 1

let current_gen rt timer = rt.timer_gen.(timer)

let bump_gen rt timer =
  let gen = rt.timer_gen.(timer) + 1 in
  rt.timer_gen.(timer) <- gen;
  gen

let icreate ?(tie_order = Fifo) ?(edge_delay = fun _ -> wire_delay) ?faults
    ?telemetry g =
  let order = Graph.topological_order g in
  let states =
    List.fold_left
      (fun acc id -> Node_id.Map.add id (runtime_of_node g id) acc)
      Node_id.Map.empty (Graph.node_ids g)
  in
  let tie_rng =
    match tie_order with
    | Shuffled seed -> Some (Prng.create seed)
    | Fifo | Lifo -> None
  in
  let t = {
    graph = g;
    states;
    i_tie_order = tie_order;
    i_tie_rng = tie_rng;
    i_edge_delay = edge_delay;
    i_faults = Option.map Fault.start faults;
    i_telemetry = telemetry;
    queue = Event_queue.empty;
    depth = 0;
    i_seq = 0;
    i_clock = 0;
    i_activations = 0;
    i_packets = 0;
    i_last_active = None;
    i_trace = Tbuf.create ();
  }
  in
  (* Power-on sweep: each block evaluates once so that every output is
     consistent with the power-on inputs (physical blocks announce their
     state at power-on).  Performed latch-to-latch in topological order,
     with no packets and no clock advance; timer requests (e.g. a delay
     block whose power-on input differs from its reset state) become
     ordinary timer events counted from time 0. *)
  let init_node id =
    let d = Graph.descriptor g id in
    match d.Eblock.Descriptor.kind with
    | Eblock.Kind.Sensor | Eblock.Kind.Output -> ()
    | Eblock.Kind.Compute | Eblock.Kind.Comm | Eblock.Kind.Programmable ->
      let rt = Node_id.Map.find id states in
      let act =
        { Eval_oracle.inputs = Array.copy rt.input_latch; fired = None }
      in
      let outcome =
        Eval_oracle.activate d.Eblock.Descriptor.behavior
          ~n_outputs:d.Eblock.Descriptor.n_outputs rt.env act
      in
      Array.iteri
        (fun port slot ->
          match slot with
          | Some v ->
            rt.output_latch.(port) <- v;
            Graph.iter_fanout_on g id port
              (fun e ->
                let dst_rt = Node_id.Map.find e.Graph.dst.Graph.node states in
                dst_rt.input_latch.(e.Graph.dst.Graph.port) <- v)
          | None -> ())
        outcome.Eval_oracle.outputs;
      List.iter
        (fun (timer, action) ->
          match action with
          | Eval_oracle.Timer_set delay ->
            let gen = bump_gen rt timer in
            ischedule t ~time:delay (Timer_expiry (id, timer, gen))
          | Eval_oracle.Timer_cancelled -> ignore (bump_gen rt timer))
        outcome.Eval_oracle.timers
  in
  List.iter init_node order;
  (* Spurious resets are plan-scheduled events like any other; an empty
     plan schedules none and the queue stays untouched. *)
  Option.iter
    (fun plan ->
      List.iter
        (fun (id, time) ->
          if Graph.mem g id then ischedule t ~time (Fault_reset id))
        (Fault.resets plan))
    faults;
  t


(* Present [v] on output [port] of [id]; on change, send a packet down
   every connection of that port. *)
let ipresent t ~time id port v =
  let rt = istate t id in
  (* A stuck-at output fault overrides the value before change
     detection: downstream never sees anything else on that port. *)
  let v =
    match t.i_faults with
    | None -> v
    | Some frt -> Fault.stuck_value frt ~time id ~port v
  in
  if not (Behavior.Ast.equal_value rt.output_latch.(port) v) then begin
    rt.output_latch.(port) <- v;
    Graph.iter_fanout_on t.graph id port
      (fun e ->
        t.i_packets <- t.i_packets + 1;
        Obs.Metrics.incr m_packets;
        let deliveries, strike =
          match t.i_faults with
          | None -> ([ (0, v) ], Fault.no_strike)
          | Some frt -> Fault.on_send frt ~time e v
        in
        (match t.i_telemetry with
         | None -> ()
         | Some tel ->
           let base = max 1 (t.i_edge_delay e) in
           Telemetry.note_send tel e ~strike
             ~latencies:(List.map (fun (extra, _) -> base + extra)
                           deliveries));
        List.iter
          (fun (extra, v') ->
            ischedule t
              ~time:(time + max 1 (t.i_edge_delay e) + extra)
              (Deliver (e, v')))
          deliveries)
  end

let iactivate t ~time id ~fired =
  let d = Graph.descriptor t.graph id in
  let rt = istate t id in
  t.i_activations <- t.i_activations + 1;
  Obs.Metrics.incr m_activations;
  (match t.i_telemetry with
   | None -> ()
   | Some tel -> Telemetry.note_activation tel id);
  let act =
    { Eval_oracle.inputs = Array.copy rt.input_latch; fired }
  in
  let outcome =
    Eval_oracle.activate d.Eblock.Descriptor.behavior
      ~n_outputs:d.Eblock.Descriptor.n_outputs rt.env act
  in
  Array.iteri
    (fun port slot ->
      match slot with
      | Some v -> ipresent t ~time id port v
      | None -> ())
    outcome.Eval_oracle.outputs;
  List.iter
    (fun (timer, action) ->
      match action with
      | Eval_oracle.Timer_set delay ->
        let gen = bump_gen rt timer in
        ischedule t ~time:(time + delay) (Timer_expiry (id, timer, gen))
      | Eval_oracle.Timer_cancelled -> ignore (bump_gen rt timer))
    outcome.Eval_oracle.timers

let iprocess t ~time event =
  t.i_clock <- max t.i_clock time;
  t.i_last_active <- Some (event_node event);
  Obs.Metrics.incr m_events;
  (match t.i_telemetry with
   | None -> ()
   | Some tel ->
     let kind =
       match event with
       | Deliver (e, _) -> Telemetry.Delivered e
       | Timer_expiry _ -> Telemetry.Timer_fired
       | Sensor_change _ -> Telemetry.Sensor_set
       | Fault_reset _ -> Telemetry.Reset
     in
     Telemetry.note_event tel ~time (event_node event) kind);
  match event with
  | Deliver (e, v) ->
    Obs.Metrics.incr m_deliveries;
    let dst = e.Graph.dst.Graph.node in
    let rt = istate t dst in
    let port = e.Graph.dst.Graph.port in
    let changed = not (Behavior.Ast.equal_value rt.input_latch.(port) v) in
    rt.input_latch.(port) <- v;
    (match Graph.kind t.graph dst with
     | Eblock.Kind.Output ->
       if changed then Tbuf.push t.i_trace ~time dst v
     | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
     | Eblock.Kind.Programmable -> iactivate t ~time dst ~fired:None)
  | Timer_expiry (id, timer, gen) ->
    let rt = istate t id in
    if current_gen rt timer = gen then iactivate t ~time id ~fired:(Some timer)
  | Sensor_change (id, b) -> ipresent t ~time id 0 (Behavior.Ast.Bool b)
  | Fault_reset id ->
    (* Brownout: the block loses its volatile state — variable store and
       pending timers — and its outputs snap back to power-on values,
       announced downstream like a power-on.  Latched inputs survive (the
       input registers hold), so the block recomputes on its next
       activation; until then its outputs may disagree with its inputs,
       which is exactly the degradation {!Degrade} classifies. *)
    Option.iter Fault.note_reset t.i_faults;
    let d = Graph.descriptor t.graph id in
    let rt = istate t id in
    rt.env <- Eval_oracle.init d.Eblock.Descriptor.behavior;
    Array.iteri
      (fun timer gen -> if gen > 0 then rt.timer_gen.(timer) <- gen + 1)
      rt.timer_gen;
    Array.iteri (fun port v -> ipresent t ~time id port v)
      d.Eblock.Descriptor.output_init

let istep t =
  match Event_queue.min_binding_opt t.queue with
  | None -> false
  | Some (((time, _, _) as key), event) ->
    t.queue <- Event_queue.remove key t.queue;
    t.depth <- t.depth - 1;
    iprocess t ~time event;
    true

let irun_until t horizon =
  let rec loop () =
    match Event_queue.min_binding_opt t.queue with
    | Some (((time, _, _) as key), event) when time <= horizon ->
      t.queue <- Event_queue.remove key t.queue;
      t.depth <- t.depth - 1;
      iprocess t ~time event;
      loop ()
    | Some _ | None -> t.i_clock <- max t.i_clock horizon
  in
  loop ()

(* ================================================================== *)
(* The engine API test_kernel.ml compares, as the engine dispatched it
   to this kernel. *)

type t = interp

let create = icreate

let now t = t.i_clock

let queue_depth t = t.depth

let last_active t = t.i_last_active

let settle ?(limit = 100_000) t =
  Obs.Journal.with_span "sim.settle" @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let drained =
    let rec go n = if n = limit || not (istep t) then n else go (n + 1) in
    go 0
  in
  if drained = limit then begin
    let queue_depth = queue_depth t in
    let clock = now t in
    let last_node = last_active t in
    if Obs.Journal.enabled () then
      Obs.Journal.emit
        (Obs.Journal.Event_limit { clock; queue_depth; last_node });
    Obs.Journal.note_failure
      (Printf.sprintf
         "simulation event limit exceeded (clock %d, %d events pending)"
         clock queue_depth);
    raise (Sim.Engine.Event_limit_exceeded { clock; queue_depth; last_node })
  end
  else begin
    Obs.Metrics.incr m_settles;
    Obs.Metrics.add m_settle_iterations drained;
    (match t.i_telemetry with
     | None -> ()
     | Some tel -> Telemetry.note_settle tel);
    Obs.Histogram.observe h_settle_ns
      (Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0));
    Obs.Histogram.observe_int h_settle_events drained
  end

let require_sensor t id =
  match Graph.kind t.graph id with
  | Eblock.Kind.Sensor -> ()
  | Eblock.Kind.Output | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    invalid_arg (Printf.sprintf "Engine.set_sensor: node %d is not a sensor" id)

let set_sensor_at t ~time id b =
  require_sensor t id;
  if time < now t then invalid_arg "Engine.set_sensor_at: time in the past";
  ischedule t ~time (Sensor_change (id, b))

let set_sensor t id b = set_sensor_at t ~time:(now t) id b

let output_value t id =
  match Graph.kind t.graph id with
  | Eblock.Kind.Output -> (istate t id).input_latch.(0)
  | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    invalid_arg
      (Printf.sprintf "Engine.output_value: node %d is not a primary output" id)

let output_values t =
  List.map (fun id -> (id, output_value t id)) (Graph.primary_outputs t.graph)

let trace t = Tbuf.to_list t.i_trace

let activation_count t = t.i_activations

let packet_count t = t.i_packets

let fault_stats t = Option.map Fault.stats t.i_faults

(* Sim.Stimulus.settled_outputs, over this kernel. *)
let settled_outputs engine script =
  let ordered =
    List.stable_sort
      (fun (a : Sim.Stimulus.step) b -> Int.compare a.time b.time)
      script
  in
  List.map
    (fun (step : Sim.Stimulus.step) ->
      let time = max step.time (now engine) in
      set_sensor_at engine ~time step.sensor step.value;
      settle engine;
      (step.time, output_values engine))
    ordered

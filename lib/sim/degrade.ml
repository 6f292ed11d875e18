module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let m_runs =
  Obs.Metrics.counter "sim.degrade.runs" ~doc:"degradation runs classified"
let m_diverged =
  Obs.Metrics.counter "sim.degrade.diverged"
    ~doc:"degradation runs that hit the event limit"

type outcome =
  | Identical
  | Glitch_recovered
  | Wrong_value
  | Diverged

let severity = function
  | Identical -> 0
  | Glitch_recovered -> 1
  | Wrong_value -> 2
  | Diverged -> 3

(* The monotone [0,1] mapping the reliability objective averages; the
   spacing (0, 1/4, 3/4, 1) weights the recoverable/unrecoverable
   boundary over the wrong/diverged one.  See the interface. *)
let score = function
  | Identical -> 0.
  | Glitch_recovered -> 0.25
  | Wrong_value -> 0.75
  | Diverged -> 1.

let outcome_to_string = function
  | Identical -> "identical"
  | Glitch_recovered -> "glitch-recovered"
  | Wrong_value -> "wrong-value"
  | Diverged -> "diverged"

let outcome_code = function
  | Identical -> "ok"
  | Glitch_recovered -> "gl"
  | Wrong_value -> "wr"
  | Diverged -> "dv"

let pp_outcome ppf o = Format.pp_print_string ppf (outcome_to_string o)

type run = {
  outcome : outcome;
  injected : Fault.stats;
  packets : int;
  mismatched_steps : int;
  steps : int;
  settle_limit : int;
}

let same_outputs a b =
  List.for_all2
    (fun (_, va) (_, vb) -> Behavior.Ast.equal_value va vb)
    a b

(* Replay the script on a fault-armed engine, settling after each step
   as {!Stimulus.settled_outputs} does, but stopping (rather than
   raising) when a settle exhausts its event limit. *)
let faulty_observations ~settle_limit engine script =
  let ordered =
    List.stable_sort
      (fun a b -> Int.compare a.Stimulus.time b.Stimulus.time)
      script
  in
  let rec loop acc = function
    | [] -> (List.rev acc, false)
    | step :: rest ->
      let time = max step.Stimulus.time (Engine.now engine) in
      Engine.set_sensor_at engine ~time step.Stimulus.sensor
        step.Stimulus.value;
      (match Engine.settle ~limit:settle_limit engine with
       | () -> loop (Engine.output_values engine :: acc) rest
       | exception Engine.Event_limit_exceeded _ -> (List.rev acc, true))
  in
  loop [] ordered

type reference = {
  ref_net : Engine.prepared;  (* every trial engine starts from it *)
  ref_tie_order : Engine.tie_order;
  ref_outputs : (int * (Node_id.t * Behavior.Ast.value) list) list;
}

let classify_with ?telemetry ~settle_limit
    ~reference:{ ref_net; ref_tie_order; ref_outputs } ~faults script =
  let reference = ref_outputs in
  Obs.Metrics.incr m_runs;
  let engine =
    Engine.start ~tie_order:ref_tie_order ~faults ?telemetry ref_net
  in
  let observed, diverged = faulty_observations ~settle_limit engine script in
  let injected =
    match Engine.fault_stats engine with
    | Some s -> s
    | None -> assert false  (* the engine above was created with ~faults *)
  in
  let steps = List.length reference in
  let rec compare_points mismatches last_matched refs obs =
    match refs, obs with
    | [], _ | _, [] -> (mismatches, last_matched)
    | (_, r) :: refs, o :: obs ->
      if same_outputs r o then compare_points mismatches true refs obs
      else compare_points (mismatches + 1) false refs obs
  in
  let compared_mismatches, last_matched =
    compare_points 0 true reference observed
  in
  let unobserved = steps - List.length observed in
  let outcome =
    if diverged then begin
      Obs.Metrics.incr m_diverged;
      Diverged
    end
    else if compared_mismatches = 0 then Identical
    else if last_matched then Glitch_recovered
    else Wrong_value
  in
  {
    outcome;
    injected;
    packets = Engine.packet_count engine;
    mismatched_steps = compared_mismatches + max 0 unobserved;
    steps;
    settle_limit;
  }

let reference ?(tie_order = Engine.Fifo) g script =
  let net = Engine.prepare g in
  {
    ref_net = net;
    ref_tie_order = tie_order;
    ref_outputs =
      Stimulus.settled_outputs (Engine.start ~tie_order net) script;
  }

let classify_against ?(settle_limit = 100_000) ?telemetry ~reference _g script
    ~faults =
  classify_with ?telemetry ~settle_limit ~reference ~faults script

let classify ?(tie_order = Engine.Fifo) ?(settle_limit = 100_000) ~faults g
    script =
  let reference = reference ~tie_order g script in
  classify_with ~settle_limit ~reference ~faults script

let sweep ?(tie_order = Engine.Fifo) ?(settle_limit = 100_000) ~plans g
    script =
  let reference = reference ~tie_order g script in
  List.map
    (fun (name, faults) ->
      (name, classify_with ~settle_limit ~reference ~faults script))
    plans

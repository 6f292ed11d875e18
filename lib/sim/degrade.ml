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

type run = {
  outcome : outcome;
  injected : Fault.stats;
  link_strikes : (Graph.edge * int) list;
  node_resets : (Node_id.t * int) list;
  packets : int;
  mismatched_steps : int;
  steps : int;
  settle_limit : int;
}

let same_outputs a b =
  List.for_all2
    (fun (_, va) (_, vb) -> Behavior.Ast.equal_value va vb)
    a b

type reference = {
  ref_net : Engine.prepared;  (* every trial engine starts from it *)
  ref_script : Stimulus.step array;  (* sorted by time, stably *)
  ref_outputs : (Node_id.t * Behavior.Ast.value) list array;
      (* the clean run's settled outputs after each step *)
}

(* Replay the script on a fault-armed engine, settling after each step
   as {!Stimulus.settled_outputs} does and comparing the settled
   outputs with the reference's as each step settles, but stopping
   (rather than raising) when a settle exhausts its event limit. *)
let classify_run ~settle_limit ~reference engine =
  Obs.Metrics.incr m_runs;
  let steps = Array.length reference.ref_outputs in
  (* [last_matched] starts true: a run with nothing compared ends
     matched *)
  let rec replay i mismatches last_matched =
    if i = steps then (mismatches, last_matched, false)
    else begin
      let step = reference.ref_script.(i) in
      let time = max step.Stimulus.time (Engine.now engine) in
      Engine.set_sensor_at engine ~time step.Stimulus.sensor
        step.Stimulus.value;
      match Engine.settle ~limit:settle_limit engine with
      | () ->
        if same_outputs reference.ref_outputs.(i) (Engine.output_values engine)
        then replay (i + 1) mismatches true
        else replay (i + 1) (mismatches + 1) false
      | exception Engine.Event_limit_exceeded _ ->
        (* the steps from this one on were never observed *)
        (mismatches + (steps - i), last_matched, true)
    end
  in
  let mismatched_steps, last_matched, diverged = replay 0 0 true in
  let injected =
    match Engine.fault_stats engine with
    | Some s -> s
    | None -> assert false  (* every trial engine is armed with ~faults *)
  in
  let outcome =
    if diverged then begin
      Obs.Metrics.incr m_diverged;
      Diverged
    end
    else if mismatched_steps = 0 then Identical
    else if last_matched then Glitch_recovered
    else Wrong_value
  in
  {
    outcome;
    injected;
    link_strikes = Engine.link_strikes engine;
    node_resets = Engine.node_resets engine;
    packets = Engine.packet_count engine;
    mismatched_steps;
    steps;
    settle_limit;
  }

let reference g script =
  let net = Engine.prepare g in
  let ordered =
    List.stable_sort
      (fun a b -> Int.compare a.Stimulus.time b.Stimulus.time)
      script
  in
  {
    ref_net = net;
    ref_script = Array.of_list ordered;
    ref_outputs =
      Array.of_list
        (List.map snd
           (Stimulus.settled_outputs (Engine.start net) ordered));
  }

(* Every faulty replay runs here: one engine for the list, started for
   the first plan and restarted for each next one.  A collector gathers
   every run: each counts on a block of the engine's, added into the
   collector as the run ends (a restart zeroes the block). *)
let classify_each ?(settle_limit = 100_000) ?telemetry ~reference plans =
  match plans with
  | [] -> []
  | first :: rest ->
    let block =
      Option.map
        (fun (c : Telemetry.t) ->
          Telemetry.create ~timeline:c.timeline ~timeline_cap:c.timeline_cap
            ())
        telemetry
    in
    let engine =
      Engine.start ~faults:first ?telemetry:block reference.ref_net
    in
    let classify () =
      let run = classify_run ~settle_limit ~reference engine in
      (match telemetry, block with
       | Some into, Some b -> Telemetry.add ~into b
       | _ -> ());
      run
    in
    let first_run = classify () in
    let rec go acc = function
      | [] -> List.rev acc
      | faults :: rest ->
        Engine.restart ~faults engine;
        go (classify () :: acc) rest
    in
    go [ first_run ] rest

let classify ?(settle_limit = 100_000) ~faults g script =
  List.hd
    (classify_each ~settle_limit ~reference:(reference g script) [ faults ])

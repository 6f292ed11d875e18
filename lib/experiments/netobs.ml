module Graph = Netlist.Graph

(* This module shadows nothing itself, but the reliability library's
   name is shadowed by Experiments.Reliability, so it is reached
   through the dune root module (same as reliability.ml). *)
module Estimator = Libs.Reliability.Estimator
module Family = Libs.Reliability.Family

type config = {
  seed : int;
  trials : int;
  family : Family.t option;
  steps : int;
  spacing : int;
  settle_limit : int;
}

let default_config =
  {
    seed = 7;
    trials = 8;
    family = Some (Family.Drop { rate = 0.05 });
    steps = 20;
    spacing = 20;
    settle_limit = 20_000;
  }

type observation = {
  name : string;
  network : Graph.t;
  family : Family.t option;
  seed : int;
  trials : int;
  telemetry : Sim.Telemetry.t;
  identical : int;
  recovered : int;
  wrong : int;
  diverged : int;
  severity : float;
  blame : Estimator.blame;
}

(* Same derivation as Estimator.script: the stimulus stream is distinct
   from the trial-seed stream, and sensors keep their ids under
   synthesis rewriting so one script drives flat and partitioned
   networks alike. *)
let script (config : config) g =
  let rng = Prng.create ((config.seed * 2) + 1) in
  Sim.Stimulus.random ~rng ~sensors:(Graph.sensors g) ~steps:config.steps
    ~spacing:config.spacing

let trial_plans (config : config) family g =
  let seed_rng = Prng.create config.seed in
  (* explicit recursion: the seed stream must be consumed in trial
     order (List.init's application order is unspecified) *)
  let rec draw n acc =
    if n = 0 then List.rev acc
    else
      draw (n - 1)
        (Family.plan family ~seed:(Prng.int seed_rng 0x3FFF_FFFF) g :: acc)
  in
  draw config.trials []

let observe_network ?(jobs = 1) ?(config = default_config) ~name g =
  let script = script config g in
  match config.family with
  | None ->
    (* Fault-free observation: one clean instrumented replay. *)
    let telemetry = Sim.Telemetry.create () in
    let engine = Sim.Engine.create ~telemetry g in
    ignore (Sim.Stimulus.settled_outputs engine script);
    {
      name;
      network = g;
      family = None;
      seed = config.seed;
      trials = 1;
      telemetry;
      identical = 1;
      recovered = 0;
      wrong = 0;
      diverged = 0;
      severity = 0.;
      blame = Estimator.empty_blame;
    }
  | Some family ->
    if config.trials <= 0 then invalid_arg "Netobs: trials must be positive";
    let reference = Sim.Degrade.reference g script in
    let plans = trial_plans config family g in
    (* Plans are pre-drawn in trial order and Parallel.map returns
       results in input order, so the merged telemetry, tally, and
       blame below cannot depend on [jobs]. *)
    let trials_run =
      Parallel.map ~jobs
        (fun faults ->
          let telemetry = Sim.Telemetry.create () in
          let run =
            Sim.Degrade.classify_against ~settle_limit:config.settle_limit
              ~telemetry ~reference g script ~faults
          in
          (run, telemetry))
        plans
    in
    let telemetry =
      List.fold_left
        (fun acc (_, tel) -> Sim.Telemetry.merge acc tel)
        (Sim.Telemetry.create ())
        trials_run
    in
    let count o =
      List.length
        (List.filter (fun (r, _) -> r.Sim.Degrade.outcome = o) trials_run)
    in
    let severity =
      List.fold_left
        (fun acc (r, _) -> acc +. Sim.Degrade.score r.Sim.Degrade.outcome)
        0. trials_run
      /. float_of_int config.trials
    in
    {
      name;
      network = g;
      family = Some family;
      seed = config.seed;
      trials = config.trials;
      telemetry;
      identical = count Sim.Degrade.Identical;
      recovered = count Sim.Degrade.Glitch_recovered;
      wrong = count Sim.Degrade.Wrong_value;
      diverged = count Sim.Degrade.Diverged;
      severity;
      blame = Estimator.blame_of_trials (List.map fst trials_run);
    }

let record_timeline ?(config = default_config) g =
  let script = script config g in
  let telemetry = Sim.Telemetry.create ~timeline:true () in
  let faults =
    (* The first trial's plan — the timeline shows the same perturbed
       run the first Monte-Carlo trial classified. *)
    Option.map (fun family -> List.hd (trial_plans config family g))
      config.family
  in
  let engine =
    match faults with
    | None -> Sim.Engine.create ~telemetry g
    | Some faults -> Sim.Engine.create ~faults ~telemetry g
  in
  let ordered =
    List.stable_sort
      (fun a b -> Int.compare a.Sim.Stimulus.time b.Sim.Stimulus.time)
      script
  in
  (* Tolerant replay: a perturbed run that livelocks still yields the
     timeline up to the event limit (mirrors Degrade's faulty replay). *)
  let rec loop = function
    | [] -> ()
    | step :: rest ->
      let time = max step.Sim.Stimulus.time (Sim.Engine.now engine) in
      Sim.Engine.set_sensor_at engine ~time step.Sim.Stimulus.sensor
        step.Sim.Stimulus.value;
      (match Sim.Engine.settle ~limit:config.settle_limit engine with
       | () -> loop rest
       | exception Sim.Engine.Event_limit_exceeded _ -> ())
  in
  loop ordered;
  telemetry

let report_json o =
  let num n = Obs.Json.Num (float_of_int n) in
  let extra =
    [
      ( "family",
        match o.family with
        | Some f -> Obs.Json.Str (Family.to_string f)
        | None -> Obs.Json.Null );
      ("seed", num o.seed);
      ("trials", num o.trials);
      ( "tally",
        Obs.Json.Obj
          [
            ("identical", num o.identical);
            ("recovered", num o.recovered);
            ("wrong", num o.wrong);
            ("diverged", num o.diverged);
          ] );
      ("severity", Obs.Json.Num o.severity);
      ("blame", Estimator.blame_to_json o.blame);
    ]
  in
  Sim.Telemetry.report_json ~name:o.name ~extra o.network o.telemetry

let write_report o path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string ~indent:2 (report_json o));
      output_char oc '\n')

(* --- Flat vs partitioned link utilization over Table 1 ---------------- *)

type cmp_row = {
  design : string;
  flat_links : int;
  part_links : int;
  flat_sends : int;
  part_sends : int;
  flat_hot : string;
  flat_hot_sends : int;
  part_hot : string;
  part_hot_sends : int;
  flat_p99 : float;
  part_p99 : float;
}

let utilization o =
  let links = Sim.Telemetry.links o.telemetry in
  let sends =
    List.fold_left
      (fun acc (_, s) -> acc + s.Sim.Telemetry.sends)
      0 links
  in
  let hot, hot_sends =
    List.fold_left
      (fun ((_, best) as acc) (e, s) ->
        if s.Sim.Telemetry.sends > best then
          (Graph.edge_to_string e, s.Sim.Telemetry.sends)
        else acc)
      ("-", 0) links
  in
  let p99 =
    List.fold_left
      (fun acc (_, s) ->
        Float.max acc s.Sim.Telemetry.latency.Obs.Histogram.s_p99)
      0. links
  in
  (List.length links, sends, hot, hot_sends, p99)

let compare_network ?jobs ?(config = default_config) ~name g =
  let flat = observe_network ?jobs ~config ~name g in
  let result, _ = Codegen.Replace.synthesize g in
  let part =
    observe_network ?jobs ~config ~name result.Codegen.Replace.network
  in
  let flat_links, flat_sends, flat_hot, flat_hot_sends, flat_p99 =
    utilization flat
  in
  let part_links, part_sends, part_hot, part_hot_sends, part_p99 =
    utilization part
  in
  ( {
      design = name;
      flat_links;
      part_links;
      flat_sends;
      part_sends;
      flat_hot;
      flat_hot_sends;
      part_hot;
      part_hot_sends;
      flat_p99;
      part_p99;
    },
    flat,
    part )

let compare_design ?jobs ?config d =
  compare_network ?jobs ?config ~name:d.Designs.Design.name
    d.Designs.Design.network

let run ?jobs ?config () =
  List.map
    (fun d ->
      let row, _, _ = compare_design ?jobs ?config d in
      row)
    Designs.Library.table1

let headers =
  [
    "Design"; "Links"; "Links'"; "Sends"; "Sends'"; "Hot link"; "Hot";
    "Hot link'"; "Hot'"; "p99 tk"; "p99 tk'";
  ]

let row_cells r =
  [
    r.design;
    string_of_int r.flat_links;
    string_of_int r.part_links;
    string_of_int r.flat_sends;
    string_of_int r.part_sends;
    r.flat_hot;
    string_of_int r.flat_hot_sends;
    r.part_hot;
    string_of_int r.part_hot_sends;
    Printf.sprintf "%.1f" r.flat_p99;
    Printf.sprintf "%.1f" r.part_p99;
  ]

let to_table rows =
  Report.Table.render ~headers ~rows:(List.map row_cells rows) ()

let to_csv rows =
  Report.Table.render_csv ~headers ~rows:(List.map row_cells rows)

let summary rows =
  let n = List.length rows in
  let fewer =
    List.length (List.filter (fun r -> r.part_sends <= r.flat_sends) rows)
  in
  let tot f = List.fold_left (fun acc r -> acc + f r) 0 rows in
  let hottest f = List.fold_left (fun acc r -> max acc (f r)) 0 rows in
  Printf.sprintf
    "partitioned network sends no more link packets on %d/%d designs \
     (total sends: flat %d, partitioned %d; busiest single link: flat %d, \
     partitioned %d)"
    fewer n
    (tot (fun r -> r.flat_sends))
    (tot (fun r -> r.part_sends))
    (hottest (fun r -> r.flat_hot_sends))
    (hottest (fun r -> r.part_hot_sends))

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

(* The estimator's script and trial plans: sensors keep their ids under
   synthesis rewriting, so one script drives flat and partitioned
   networks alike. *)
let estimator (config : config) family =
  {
    Estimator.seed = config.seed;
    trials = config.trials;
    family;
    steps = config.steps;
    spacing = config.spacing;
    settle_limit = config.settle_limit;
  }

let script config g =
  Estimator.script (estimator config Estimator.default_config.family) g

(* Without a family, an observation and a timeline are both this one
   run: the clean script, replayed once on an instrumented engine. *)
let clean_replay config ~telemetry g =
  let engine = Sim.Engine.create ~telemetry g in
  ignore (Sim.Stimulus.settled_outputs engine (script config g))

let observe_network ?(jobs = 1) ?(config = default_config) ~name g =
  let telemetry = Sim.Telemetry.create () in
  match config.family with
  | None ->
    clean_replay config ~telemetry g;
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
    let e =
      Estimator.estimate_network ~jobs ~telemetry (estimator config family) g
    in
    {
      name;
      network = g;
      family = Some family;
      seed = config.seed;
      trials = e.trials;
      telemetry;
      identical = e.identical;
      recovered = e.recovered;
      wrong = e.wrong;
      diverged = e.diverged;
      severity = e.mean;
      blame = e.blame;
    }

let record_timeline ?(config = default_config) g =
  let telemetry = Sim.Telemetry.create ~timeline:true () in
  (match config.family with
   | Some family ->
     (* The first trial's plan does not depend on the trial count, so a
        one-trial estimate replays the very run the first Monte-Carlo
        trial classified. *)
     ignore
       (Estimator.estimate_network ~telemetry
          { (estimator config family) with trials = 1 }
          g)
   | None -> clean_replay config ~telemetry g);
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
  flat_p99 : int;
  part_p99 : int;
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
      (fun acc (_, s) -> Int.max acc s.Sim.Telemetry.latency.Sim.Telemetry.p99)
      0 links
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
    Printf.sprintf "%.1f" (float_of_int r.flat_p99);
    Printf.sprintf "%.1f" (float_of_int r.part_p99);
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

module Graph = Netlist.Graph

(* Experiments.Reliability shadows the reliability library's name, so it
   is reached through the dune root module (as in netobs.ml). *)
module Estimator = Libs.Reliability.Estimator
module Family = Libs.Reliability.Family

type config = {
  seed : int;
  trials : int;
  drop_rates : float list;
  steps : int;
  spacing : int;
  settle_limit : int;
}

let default_config =
  {
    seed = 11;
    trials = 20;
    drop_rates = [ 0.02; 0.05; 0.10 ];
    steps = 30;
    spacing = 25;
    settle_limit = 20_000;
  }

type row = {
  design : string;
  drop : float;
  flat_edges : int;
  part_edges : int;
  flat : Estimator.estimate;
  part : Estimator.estimate;
}

let run_network ?(config = default_config) ~name g =
  let result, _ = Codegen.Replace.synthesize g in
  let g' = result.Codegen.Replace.network in
  List.map
    (fun drop ->
      (* One estimator config per point: both networks replay its script
         under its plans (sensors keep their ids under synthesis), and
         nothing in it depends on the other rates or designs. *)
      let estimator =
        {
          Estimator.seed = config.seed;
          trials = config.trials;
          family = Family.Drop { rate = drop };
          steps = config.steps;
          spacing = config.spacing;
          settle_limit = config.settle_limit;
        }
      in
      {
        design = name;
        drop;
        flat_edges = Graph.edge_count g;
        part_edges = Graph.edge_count g';
        flat = Estimator.estimate_network estimator g;
        part = Estimator.estimate_network estimator g';
      })
    config.drop_rates

let run_design ?config d =
  run_network ?config ~name:d.Designs.Design.name d.Designs.Design.network

let run ?config () =
  List.concat_map (run_design ?config) Designs.Library.table1

let headers =
  [
    "Design"; "Drop"; "Edges"; "Edges'"; "Flat ok/gl/wr/dv";
    "Part ok/gl/wr/dv"; "Inj"; "Inj'";
  ]

let tally_cell (e : Estimator.estimate) =
  Printf.sprintf "%d/%d/%d/%d" e.identical e.recovered e.wrong e.diverged

let row_cells r =
  [
    r.design;
    Printf.sprintf "%.0f %%" (100. *. r.drop);
    string_of_int r.flat_edges;
    string_of_int r.part_edges;
    tally_cell r.flat;
    tally_cell r.part;
    string_of_int (Sim.Fault.total r.flat.injected);
    string_of_int (Sim.Fault.total r.part.injected);
  ]

let to_table rows =
  Report.Table.render ~headers ~rows:(List.map row_cells rows) ()

let to_csv rows =
  Report.Table.render_csv ~headers ~rows:(List.map row_cells rows)

let summary rows =
  let points = List.length rows in
  let no_worse =
    List.length
      (List.filter
         (fun r -> r.part.Estimator.identical >= r.flat.Estimator.identical)
         rows)
  in
  let mean_pct f =
    if points = 0 then 0.
    else
      100.
      *. List.fold_left
           (fun acc r ->
             acc +. (float_of_int (f r) /. float_of_int r.flat.trials))
           0. rows
      /. float_of_int points
  in
  Printf.sprintf
    "partitioned no worse on %d/%d design-rate points (mean clean runs: \
     flat %.0f %%, partitioned %.0f %%)"
    no_worse points
    (mean_pct (fun r -> r.flat.Estimator.identical))
    (mean_pct (fun r -> r.part.Estimator.identical))

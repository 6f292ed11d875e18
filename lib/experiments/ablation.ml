type variant = {
  label : string;
  mean_total : float;
  mean_prog : float;
  mean_seconds : float;
  invalid_solutions : int;
}

type runner = Netlist.Graph.t -> Core.Solution.t

let paredown_with config : runner =
  fun g -> (Core.Paredown.run ~config g).Core.Paredown.solution

let variants : (string * runner) list =
  let open Core.Paredown in
  let base = default_config in
  [
    ("paredown (paper)", paredown_with base);
    ( "rank only, no tie-breaks",
      paredown_with { base with tie_breaks = [] } );
    ( "no convexity requirement",
      paredown_with
        {
          base with
          partition_config =
            { Core.Partition.default_config with require_convex = false };
        } );
    ( "net-based pin counting",
      paredown_with
        {
          base with
          partition_config =
            {
              Core.Partition.default_config with
              pin_counting = Core.Partition.Per_net;
            };
        } );
    ( "aggregation baseline",
      fun g -> Core.Aggregation.run g );
    ( "shapes {2x2, 4x4}",
      paredown_with
        {
          base with
          shapes =
            [
              Core.Shape.default;
              Core.Shape.make ~inputs:4 ~outputs:4 ~cost:1.8 ();
            ];
        } );
  ]

let run ?(seed = 7) ?(count = 100) ?(inner = 20) () =
  let rng = Prng.create seed in
  let designs =
    List.init count (fun _ ->
        Randgen.Generator.generate ~rng:(Prng.split rng) ~inner ())
  in
  List.map
    (fun (label, runner) ->
      let measurements =
        List.map
          (fun g ->
            let sol, seconds = Report.Timing.time (fun () -> runner g) in
            let valid =
              match Core.Solution.check g sol with
              | Ok () -> true
              | Error _ -> false
            in
            ( Core.Solution.total_inner_after g sol,
              Core.Solution.programmable_count sol,
              seconds, valid ))
          designs
      in
      {
        label;
        mean_total =
          Report.Stats.mean_int
            (List.map (fun (t, _, _, _) -> t) measurements);
        mean_prog =
          Report.Stats.mean_int
            (List.map (fun (_, p, _, _) -> p) measurements);
        mean_seconds =
          Report.Stats.mean (List.map (fun (_, _, s, _) -> s) measurements);
        invalid_solutions =
          List.length (List.filter (fun (_, _, _, v) -> not v) measurements);
      })
    variants

let to_table variants =
  let headers =
    [ "Variant"; "Mean Total"; "Mean Prog"; "Mean Time"; "Invalid" ]
  in
  let rows =
    List.map
      (fun v ->
        [
          v.label;
          Printf.sprintf "%.2f" v.mean_total;
          Printf.sprintf "%.2f" v.mean_prog;
          Report.Timing.format_seconds v.mean_seconds;
          string_of_int v.invalid_solutions;
        ])
      variants
  in
  Report.Table.render ~headers ~rows ()

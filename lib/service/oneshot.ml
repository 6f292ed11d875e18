module Graph = Netlist.Graph

type backend = Paredown | Exhaustive | Aggregation

let backend_to_string = function
  | Paredown -> "paredown"
  | Exhaustive -> "exhaustive"
  | Aggregation -> "aggregation"

let backend_of_string = function
  | "paredown" -> Ok Paredown
  | "exhaustive" -> Ok Exhaustive
  | "aggregation" -> Ok Aggregation
  | s -> Error (Printf.sprintf "unknown backend %S" s)

let default_deadline_s = 120.0

exception Unknown_design of string

let resolve_network ?design ?design_text () =
  match design_text with
  | Some text -> snd (Netlist.Textio.of_string text)
  | None -> (
    match design with
    | None -> raise (Unknown_design "(no design given)")
    | Some name -> (
      match Designs.Library.find name with
      | Some d -> d.Designs.Design.network
      | None -> raise (Unknown_design name)))

(* The one renderer both the CLI and the server print through, so a
   served response is byte-identical to the one-shot command by
   construction, not by parallel maintenance. *)
let solution_report g sol =
  Format.asprintf
    "@[<v>%a@]@.inner blocks: %d -> %d (%d programmable)@.network cost: \
     %.1f -> %.1f@."
    Core.Solution.pp sol (Graph.inner_count g)
    (Core.Solution.total_inner_after g sol)
    (Core.Solution.programmable_count sol)
    (Graph.total_cost g)
    (Graph.total_cost g
    -. Core.Solution.total_cost_after g Core.Solution.empty
    +. Core.Solution.total_cost_after g sol)

type outcome =
  | Done of {
      solution : Core.Solution.t;
      report : string;
      work : (string * Obs.Json.t) list;
    }
  | Expired of {
      solution : Core.Solution.t;
      report : string;
      work : (string * Obs.Json.t) list;
    }

let partition ~backend ~shape ?deadline_s g =
  match backend with
  | Paredown ->
    let config = { Core.Paredown.default_config with shapes = [ shape ] } in
    let r = Core.Paredown.run ~config g in
    let s = r.Core.Paredown.stats in
    Done
      {
        solution = r.Core.Paredown.solution;
        report = solution_report g r.Core.Paredown.solution;
        work =
          [
            ("outer_iterations", Obs.Json.Num (float_of_int s.Core.Paredown.outer_iterations));
            ("fit_checks", Obs.Json.Num (float_of_int s.Core.Paredown.fit_checks));
            ("removals", Obs.Json.Num (float_of_int s.Core.Paredown.removals));
          ];
      }
  | Exhaustive -> (
    let config = { Core.Exhaustive.default_config with shapes = [ shape ] } in
    let deadline_s = Option.value deadline_s ~default:default_deadline_s in
    let r = Core.Exhaustive.run ~config ~deadline_s g in
    let work =
      [
        ("nodes_explored", Obs.Json.Num (float_of_int r.Core.Exhaustive.nodes_explored));
        ("leaves_checked", Obs.Json.Num (float_of_int r.Core.Exhaustive.leaves_checked));
      ]
    in
    let solution = r.Core.Exhaustive.solution in
    let report = solution_report g solution in
    match r.Core.Exhaustive.outcome with
    | Core.Exhaustive.Timed_out -> Expired { solution; report; work }
    | Core.Exhaustive.Optimal -> Done { solution; report; work })
  | Aggregation ->
    let config = { Core.Aggregation.default_config with shapes = [ shape ] } in
    let solution = Core.Aggregation.run ~config g in
    Done { solution; report = solution_report g solution; work = [] }

let weighted ~lambda ~family ~trials ~seed ~shape g =
  let estimator =
    { Reliability.Estimator.default_config with seed; trials; family }
  in
  let cache = Reliability.Estimator.cache () in
  let severity = Reliability.Estimator.scorer ~cache estimator g in
  let wr =
    Core.Paredown.run_weighted
      ~config:{ Core.Paredown.default_config with shapes = [ shape ] }
      ~weighted:{ Core.Paredown.lambda; lexicographic = false; severity }
      g
  in
  let report =
    Printf.sprintf
      "weighted solution at λ=%g (severity %.3f -> %.3f, %d partition(s) \
       dissolved):\n"
      lambda wr.Core.Paredown.base_severity wr.Core.Paredown.severity
      wr.Core.Paredown.dissolved
    ^ solution_report g wr.Core.Paredown.solution
  in
  let stats = Reliability.Estimator.cache_stats cache in
  Done
    {
      solution = wr.Core.Paredown.solution;
      report;
      work =
        [
          ("dissolved", Obs.Json.Num (float_of_int wr.Core.Paredown.dissolved));
          ("estimates", Obs.Json.Num (float_of_int stats.Reliability.Estimator.misses));
        ];
    }

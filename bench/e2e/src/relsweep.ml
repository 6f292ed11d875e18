(* reliability-sweep: one design's λ sweep (flat, λ ∈ {0,1,4,16,64},
   lexicographic) over a fresh estimator cache, the way
   [Experiments.Reliability.run_network] runs it, but through the
   public calls so each can carry a span.  A pass sweeps the 15 Table 1
   designs under one fault family.  Pass [k] uses family [k mod 3] and
   estimator seed [seed + k mod 30]: thirty configurations average out
   how much refinement one estimator seed happens to trigger, and every
   thirtieth pass repeats its inputs, so the output-digest gate has
   something to compare. *)

module Estimator = Reliability.Estimator
module Sweep = Experiments.Reliability

let span = Spans.with_span

let families =
  [ "drop:0.05"; "chaos:0.02,0.01,0.01,2"; "brownout:0.3@40,110,180" ]

let period = 30

let config ~seed pass =
  let k = pass mod period in
  let family =
    Result.get_ok
      (Reliability.Family.of_string (List.nth families (k mod List.length families)))
  in
  {
    Sweep.default_config with
    estimator = { Estimator.default_config with family; seed = seed + k };
  }

type row = string * int * int * int * float * float

let row_text (mode, blocks, partitions, dissolved, severity, stderr) =
  Printf.sprintf "%s %d %d %d %h %h" mode blocks partitions dissolved severity
    stderr

let sweep (config : Sweep.config) g =
  let cache = Estimator.cache () in
  let scorer = Estimator.scorer ~cache config.Sweep.estimator g in
  let severity s = span "reliability.estimate" (fun () -> scorer s) in
  let row mode solution dissolved : row =
    let est =
      span "reliability.estimate" (fun () ->
          Estimator.estimate_solution ~cache config.Sweep.estimator g solution)
    in
    ( Sweep.mode_to_string mode,
      Core.Solution.total_inner_after g solution,
      Core.Solution.programmable_count solution,
      dissolved,
      est.Estimator.mean,
      est.Estimator.stderr )
  in
  let refined mode ~lambda ~lexicographic =
    let wr =
      span "core.paredown_weighted" (fun () ->
          Core.Paredown.run_weighted
            ~weighted:{ Core.Paredown.lambda; lexicographic; severity }
            g)
    in
    row mode wr.Core.Paredown.solution wr.Core.Paredown.dissolved
  in
  (row Sweep.Flat Core.Solution.empty 0
   :: List.map
        (fun lambda ->
          refined (Sweep.Weighted lambda) ~lambda ~lexicographic:false)
        config.Sweep.lambdas)
  @ [ refined Sweep.Lexicographic ~lambda:0. ~lexicographic:true ]

let setup ~seed =
  let designs =
    List.map
      (fun (d : Designs.Design.t) -> (d.Designs.Design.name, d.Designs.Design.network))
      Designs.Library.table1
  in
  let configs = List.init period (config ~seed) in
  (* Gate: pass 0's rows equal the experiment's own sweep. *)
  let reference =
    List.map
      (fun (name, g) ->
        let r = Sweep.run_network ~config:(List.hd configs) ~name g in
        List.map
          (fun (r : Sweep.row) ->
            row_text
              ( Sweep.mode_to_string r.Sweep.mode, r.blocks, r.partitions,
                r.dissolved, r.severity, r.stderr ))
          r.Sweep.rows)
      designs
  in
  let pass_ops pass =
    let config = List.nth configs (pass mod period) in
    List.map2
      (fun (name, g) expected ->
        let run () =
          let rows = sweep config g in
          fun () ->
            let text = List.map row_text rows in
            let inner = Netlist.Graph.inner_count g in
            {
              Common.output = String.concat "\n" text;
              error =
                (if pass mod period = 0 && text <> expected then
                   Some "sweep rows differ from Experiments.Reliability"
                 else None);
              blocks =
                List.fold_left
                  (fun (b, a) (_, blocks, _, _, _, _) -> (b + inner, a + blocks))
                  (0, 0) rows;
              tag = "";
            }
        in
        {
          Common.key =
            Printf.sprintf "%s/%d" name (pass mod period);
          run;
        })
      designs reference
  in
  Common.in_process ~warmup:3
    ~input_digest:
      (Common.hex
         (String.concat "\n"
            (List.map
               (fun (c : Sweep.config) ->
                 Reliability.Family.to_string c.Sweep.estimator.Estimator.family
                 ^ string_of_int c.Sweep.estimator.Estimator.seed)
               configs
            @ List.map (fun (_, g) -> Netlist.Textio.to_string g) designs)))
    pass_ops

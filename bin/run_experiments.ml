(* Regenerates every table and claim of the paper's evaluation (§5),
   plus the fault-tolerance and verification extensions.  Subcommands:
   table1, table2, scale, ablation, power, faults, reliability, netobs,
   fuzz, all. *)

open Cmdliner
open Cli

let out_arg =
  let doc = "Also write the table as CSV to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let write_csv path csv =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc csv)

let print_header title =
  Printf.printf "\n== %s ==\n\n" title

(* Each table runs inside Obs.Metrics.with_scope and prints the scope's
   own readings afterwards (counter deltas), so the numbers are
   per-table without ever zeroing the cumulative registry — the
   reset-based version made `all` runs order-sensitive and lost the
   process totals. *)
let in_metrics_scope f =
  let result, entries = Obs.Metrics.with_scope f in
  Printf.printf "\n-- metrics --\n%s"
    (Obs.Metrics.render_entries ~omit_zero:true entries);
  result

let run_table1 cutoff csv_out () =
  print_header "Table 1: 15 library designs (exhaustive vs PareDown)";
  in_metrics_scope @@ fun () ->
  let config =
    { Experiments.Table1.default_config with exhaustive_cutoff = cutoff }
  in
  let rows = Experiments.Table1.run ~config () in
  print_string (Experiments.Table1.to_table rows);
  Option.iter
    (fun path -> write_csv path (Experiments.Table1.to_csv rows))
    csv_out

let run_table2 seed scale_counts cutoff jobs csv_out () =
  print_header "Table 2: randomly generated designs";
  in_metrics_scope @@ fun () ->
  let base = Experiments.Table2.default_config in
  let sizes =
    List.map
      (fun (inner, count) ->
        (inner, max 1 (int_of_float (float_of_int count *. scale_counts))))
      base.Experiments.Table2.sizes
  in
  let config =
    { base with Experiments.Table2.seed; sizes; exhaustive_cutoff = cutoff }
  in
  let buckets = Experiments.Table2.run ~config ~jobs () in
  print_string (Experiments.Table2.to_table buckets);
  Option.iter
    (fun path -> write_csv path (Experiments.Table2.to_csv buckets))
    csv_out

let run_scale jobs () =
  print_header "Scalability (§5.2): PareDown on large random designs";
  let (per_run_exact, measured_total), entries =
    Obs.Metrics.with_scope (fun () ->
        print_string
          (Experiments.Scale.to_table (Experiments.Scale.run_random ~jobs ()));
        print_header "Worst-case family (§4.2): fit checks = n(n+1)/2";
        let worst = Experiments.Scale.run_worst_case ~jobs () in
        print_string (Experiments.Scale.to_table worst);
        ( List.for_all
            (fun p ->
              p.Experiments.Scale.expected_fit_checks
              = Some p.Experiments.Scale.fit_checks)
            worst,
          List.fold_left
            (fun acc p -> acc + p.Experiments.Scale.fit_checks)
            0 worst ))
  in
  (* The §4.2 claim, asserted rather than eyeballed: the per-run fit
     checks and the scope's counter delta must both reach the closed
     form (the scope also covers the random sweep, so >=). *)
  let counted =
    match
      List.find_opt
        (fun e -> e.Obs.Metrics.name = "core.paredown.fit_checks")
        entries
    with
    | Some e -> e.Obs.Metrics.value
    | None -> -1
  in
  let exact = per_run_exact && counted >= measured_total in
  Printf.printf "worst-case closed form: %s\n"
    (if exact then "ok (fit checks = n(n+1)/2 on every size)"
     else "MISMATCH (see table above)");
  Printf.printf "\n-- metrics --\n%s"
    (Obs.Metrics.render_entries ~omit_zero:true entries);
  if not exact then exit 1

let run_ablation seed count inner () =
  print_header "Ablations: PareDown ingredients and baselines";
  in_metrics_scope @@ fun () ->
  print_string
    (Experiments.Ablation.to_table
       (Experiments.Ablation.run ~seed ~count ~inner ()))

let run_power seed steps () =
  print_header
    "Power proxy (§1): packets transmitted before/after synthesis";
  in_metrics_scope @@ fun () ->
  print_string
    (Experiments.Power.to_table (Experiments.Power.run ~seed ~steps ()))

let run_faults seed trials csv_out () =
  print_header
    "Fault tolerance: degradation of flat vs partitioned networks under \
     packet drops";
  in_metrics_scope @@ fun () ->
  let config =
    { Experiments.Faults.default_config with seed; trials }
  in
  let rows = Experiments.Faults.run ~config () in
  print_string (Experiments.Faults.to_table rows);
  print_endline (Experiments.Faults.summary rows);
  Option.iter
    (fun path -> write_csv path (Experiments.Faults.to_csv rows))
    csv_out

let run_reliability seed trials family jobs csv_out () =
  print_header
    "Reliability: cost vs expected degradation (λ sweep and Pareto front)";
  in_metrics_scope @@ fun () ->
  let estimator =
    { Reliability.Estimator.default_config with seed; trials; family }
  in
  let config =
    { Experiments.Reliability.default_config with estimator }
  in
  let report = Experiments.Reliability.run ~config ~jobs () in
  print_string (Experiments.Reliability.to_table report);
  print_endline (Experiments.Reliability.summary report);
  Option.iter
    (fun path -> write_csv path (Experiments.Reliability.to_csv report))
    csv_out

let run_netobs seed trials family jobs check_overhead csv_out () =
  print_header
    "Network observatory: flat vs partitioned link utilization under \
     faults";
  in_metrics_scope @@ fun () ->
  let config =
    { Experiments.Netobs.default_config with seed; trials; family }
  in
  let rows = Experiments.Netobs.run ~jobs ~config () in
  print_string (Experiments.Netobs.to_table rows);
  print_endline (Experiments.Netobs.summary rows);
  Option.iter
    (fun path -> write_csv path (Experiments.Netobs.to_csv rows))
    csv_out;
  if check_overhead then begin
    let o = Experiments.Perf.telemetry_overhead () in
    Printf.printf
      "disabled-telemetry overhead: %.2f ns/guard x %d counting sites / %.0f \
       ns sweep = %.4f%%\n"
      o.Experiments.Perf.guard_ns o.Experiments.Perf.sites
      o.Experiments.Perf.sweep_ns
      (100. *. o.Experiments.Perf.ratio);
    if o.Experiments.Perf.ratio > 0.01 then begin
      print_endline
        "FAIL: disabled-telemetry overhead exceeds the 1% budget \
         (doc/network-telemetry.md)";
      exit 1
    end
  end

let run_fuzz seed seeds jobs csv_out show_metrics () =
  print_header
    "Verification fuzzing: three-tier Verify over random designs";
  (* The scope's counter deltas feed the per-tier summary line
     (race-limited scripts have no per-row home); --metrics prints the
     whole per-scope registry reading on top. *)
  let rows, entries =
    Obs.Metrics.with_scope (fun () ->
        let config = { Experiments.Fuzz.default_config with seed; seeds } in
        Experiments.Fuzz.run ~config ~jobs ())
  in
  let race_limited =
    match
      List.find_opt
        (fun e -> e.Obs.Metrics.name = "codegen.cosim.race_limited_scripts")
        entries
    with
    | Some e -> e.Obs.Metrics.value
    | None -> 0
  in
  print_string (Experiments.Fuzz.to_table rows);
  print_endline (Experiments.Fuzz.summary ~race_limited rows);
  List.iter
    (fun r ->
      match r.Experiments.Fuzz.failure with
      | Some f -> Printf.printf "seed %d: %s\n" r.Experiments.Fuzz.seed f
      | None -> ())
    rows;
  if show_metrics then
    Printf.printf "\n-- metrics --\n%s"
      (Obs.Metrics.render_entries ~omit_zero:true entries);
  Option.iter
    (fun path -> write_csv path (Experiments.Fuzz.to_csv rows))
    csv_out;
  if Experiments.Fuzz.failed_seeds rows <> [] then exit 1

let jobs_arg =
  let doc =
    "Worker domains for the sweep (default 1 = sequential).  Any value \
     produces byte-identical tables and counters; only wall-clock \
     readings differ (mask those with PAREDOWN_STABLE_TIMES=1 to diff \
     runs)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let cutoff_arg default =
  let doc = "Largest inner-block count attempted exhaustively." in
  Arg.(value & opt int default & info [ "exhaustive-cutoff" ] ~doc)

let seed_arg default =
  let doc = "Random seed (results are deterministic per seed)." in
  Arg.(value & opt int default & info [ "seed" ] ~doc)

(* Every subcommand takes the recorder flags and runs its thunk under
   them. *)
let cmd name ~doc run =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (fun a run -> with_artifacts a run) $ artifacts_term $ run)

let table1_cmd =
  cmd "table1" ~doc:"Regenerate Table 1."
    Term.(const run_table1 $ cutoff_arg 11 $ out_arg)

let table2_cmd =
  let scale_arg =
    let doc =
      "Scale factor on the per-bucket design counts (1.0 uses the \
       reduced defaults; larger values approach the paper's counts)."
    in
    Arg.(value & opt float 1.0 & info [ "scale" ] ~doc)
  in
  cmd "table2" ~doc:"Regenerate Table 2."
    Term.(
      const run_table2 $ seed_arg 2005 $ scale_arg $ cutoff_arg 11 $ jobs_arg
      $ out_arg)

let scale_cmd =
  cmd "scale" ~doc:"Regenerate the scalability and worst-case claims."
    Term.(const run_scale $ jobs_arg)

let ablation_cmd =
  let count_arg =
    Arg.(value & opt (at_least_conv 0) 100
         & info [ "count" ] ~doc:"Designs per variant.")
  in
  let inner_arg =
    Arg.(value & opt (at_least_conv 1) 20
         & info [ "inner" ] ~doc:"Inner blocks per design.")
  in
  cmd "ablation" ~doc:"Run the ablation studies."
    Term.(const run_ablation $ seed_arg 7 $ count_arg $ inner_arg)

let power_cmd =
  let steps_arg =
    Arg.(value & opt (at_least_conv 0) 200
         & info [ "steps" ] ~doc:"Random sensor changes per design.")
  in
  cmd "power" ~doc:"Compare packet counts before and after synthesis."
    Term.(const run_power $ seed_arg 23 $ steps_arg)

let faults_cmd =
  let trials_arg =
    Arg.(value & opt trials_conv 20
         & info [ "trials" ] ~doc:"Fault-plan seeds per drop rate.")
  in
  cmd "faults"
    ~doc:"Run the fault-injection degradation sweep (flat vs partitioned)."
    Term.(const run_faults $ seed_arg 11 $ trials_arg $ out_arg)

let fuzz_cmd =
  let seeds_arg =
    Arg.(value & opt int 50
         & info [ "seeds" ] ~doc:"Random designs to generate and verify.")
  in
  let metrics_arg =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the sweep's own metrics readings (counter \
                   deltas) after the table.")
  in
  cmd "fuzz"
    ~doc:"Fuzz the three-tier merge verifier over random designs; exits \
          nonzero on any failed verdict (a found merge bug, reported with \
          a shrunk counterexample)."
    Term.(
      const run_fuzz $ seed_arg 2005 $ seeds_arg $ jobs_arg $ out_arg
      $ metrics_arg)

let reliability_cmd =
  let trials_arg =
    Arg.(value & opt trials_conv 32
         & info [ "trials" ] ~doc:"Monte-Carlo trials per scored solution.")
  in
  let family_arg =
    Arg.(value & opt family_conv Reliability.Estimator.default_config.family
         & info [ "family" ] ~docv:"FAMILY"
             ~doc:"Fault-plan family: $(b,drop:R), \
                   $(b,chaos:DROP,DUP,CORRUPT,JITTER), or \
                   $(b,brownout:R@T1,T2,...).")
  in
  cmd "reliability"
    ~doc:"Sweep the reliability-weighted objective over λ and print the \
          per-design cost/expected-degradation Pareto front."
    Term.(
      const run_reliability $ seed_arg 1 $ trials_arg $ family_arg $ jobs_arg
      $ out_arg)

let netobs_cmd =
  let trials_arg =
    Arg.(value & opt trials_conv Experiments.Netobs.default_config.trials
         & info [ "trials" ] ~doc:"Monte-Carlo replays per network.")
  in
  let family_arg =
    let default =
      match Experiments.Netobs.default_config.family with
      | Some f -> f
      | None -> Reliability.Family.Drop { rate = 0.05 }
    in
    Arg.(value & opt family_conv default
         & info [ "family" ] ~docv:"FAMILY"
             ~doc:"Fault-plan family: $(b,drop:R), \
                   $(b,chaos:DROP,DUP,CORRUPT,JITTER), or \
                   $(b,brownout:R@T1,T2,...).")
  in
  let overhead_arg =
    Arg.(value & flag
         & info [ "overhead" ]
             ~doc:"Also measure the disabled-telemetry guard overhead of \
                   a Table 1 simulation sweep and exit nonzero if it \
                   exceeds the documented 1% budget.")
  in
  cmd "netobs"
    ~doc:"Compare flat vs partitioned per-link utilization (sends, busiest \
          link, worst p99 latency) over every Table 1 design under a \
          seeded fault family."
    Term.(
      const (fun seed trials family -> run_netobs seed trials (Some family))
      $ seed_arg Experiments.Netobs.default_config.seed
      $ trials_arg $ family_arg $ jobs_arg $ overhead_arg $ out_arg)

let all_cmd =
  cmd "all" ~doc:"Run every experiment."
    Term.(
      const (fun jobs () ->
          run_table1 11 None ();
          run_table2 2005 1.0 11 jobs None ();
          run_scale jobs ();
          run_ablation 7 50 20 ();
          run_power 23 200 ();
          run_faults 11 10 None ();
          run_reliability 1 32
            Reliability.Estimator.default_config.family jobs None ();
          run_netobs Experiments.Netobs.default_config.seed
            Experiments.Netobs.default_config.trials
            Experiments.Netobs.default_config.family jobs false None ();
          run_fuzz 2005 25 jobs None true ())
      $ jobs_arg)

let () =
  let info =
    Cmd.info "experiments"
      ~doc:"Regenerate the tables of 'System Synthesis for Networks of \
            Programmable Blocks' (DATE 2005)."
  in
  exit (Cmd.eval (Cmd.group info
                    [ table1_cmd; table2_cmd; scale_cmd; ablation_cmd;
                      power_cmd; faults_cmd; reliability_cmd; netobs_cmd;
                      fuzz_cmd; all_cmd ]))

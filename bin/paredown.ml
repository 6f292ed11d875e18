(* Command-line front end for the eBlock synthesis tool chain:
   inspect designs, partition them, synthesise programmable-block
   networks, emit C, simulate, and verify equivalence. *)

open Cmdliner
open Cli

module Graph = Netlist.Graph

(* ------------------------------------------------------------------ *)
(* Observability options, common to every subcommand: --trace FILE
   records a Chrome trace-event JSON file of the run, --metrics prints
   the counter registry afterwards (see doc/observability.md). *)

type obs_opts = {
  trace_file : string option;
  metrics : bool;
  journal_file : string option;
  flight_record : string option;
  journal_ring : int;
}

let obs_term =
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record a Chrome trace-event JSON file of this run to \
                   $(docv); open it in Perfetto (ui.perfetto.dev) or \
                   chrome://tracing.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the observability counters (fit checks, search \
                   nodes, packets, emitted bytes, ...) after the command.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Record the search provenance journal (typed decision \
                   events, JSONL) to $(docv); query it afterwards with \
                   $(b,paredown explain) (see doc/provenance.md).")
  in
  let flight_record =
    Arg.(value & opt (some string) None
         & info [ "flight-record" ] ~docv:"FILE"
             ~doc:"Arm the flight recorder: keep a bounded ring of \
                   decision events and dump a post-mortem JSON bundle \
                   (journal tail, metrics snapshot, git rev) to $(docv) \
                   on deadline expiry, a simulation event-limit, or a \
                   failed verification.")
  in
  let journal_ring =
    Arg.(value & opt int 4096
         & info [ "journal-ring" ] ~docv:"N"
             ~doc:"Flight-recorder ring capacity, in events.")
  in
  Term.(
    const (fun trace_file metrics journal_file flight_record journal_ring ->
        { trace_file; metrics; journal_file; flight_record; journal_ring })
    $ trace $ metrics $ journal $ flight_record $ journal_ring)

let with_obs ?(metrics_out = stdout) opts f =
  (* Open each artifact file before doing any work so a bad path fails
     fast (exit 2), not after a long run.  Its writer must also run on
     [Stdlib.exit] — synth --verify and fuzz exit 1 on failure, and
     [Fun.protect] finalizers do not run then — so it is an idempotent
     closure registered both behind a named {!Obs.Flush} slot (one
     process-lifetime at_exit; re-arming swaps the writer instead of
     accumulating a closure per invocation) and in the finally below:
     the normal path and the exit path write exactly once.  The flight
     recorder stays lazy: its bundle must not exist after a clean
     run. *)
  let artifact what start = function
    | None -> ignore
    | Some path ->
      let oc =
        try open_out path with
        | Sys_error msg ->
          Printf.eprintf "paredown: cannot write %s: %s\n" what msg;
          exit 2
      in
      let render = start () in
      let written = ref false in
      let write () =
        if not !written then begin
          written := true;
          let text, events = render () in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc text);
          Printf.eprintf "%s: %d events written to %s\n" what events path
        end
      in
      write
  in
  let write_trace =
    artifact "trace"
      (fun () ->
        Obs.Journal.start_spans ();
        fun () ->
          let spans = Obs.Journal.stop_spans () in
          (Obs.Chrome.to_string (Obs.Chrome.of_spans spans), List.length spans))
      opts.trace_file
  in
  let write_journal =
    artifact "journal"
      (fun () ->
        let j = Obs.Journal.install () in
        fun () -> (Obs.Journal.to_jsonl j, Obs.Journal.total j))
      opts.journal_file
  in
  (match opts.flight_record with
   | Some out ->
     Obs.Journal.arm_post_mortem ~capacity:opts.journal_ring ~out ()
   | None -> ());
  Obs.Flush.arm ~slot:"cli.trace" write_trace;
  Obs.Flush.arm ~slot:"cli.journal" write_journal;
  Fun.protect
    ~finally:(fun () ->
      write_trace ();
      write_journal ();
      if opts.metrics then begin
        output_char metrics_out '\n';
        output_string metrics_out (Obs.Metrics.to_table ~omit_zero:true ());
        flush metrics_out
      end)
    (fun () ->
      try f ()
      with e ->
        (* CLI-level failures (bad netlist, rewrite errors, ...) also
           deserve a post-mortem when the flight recorder is armed. *)
        Obs.Journal.note_failure (Printexc.to_string e);
        raise e)

let load_network name_or_path =
  match Designs.Library.find name_or_path with
  | Some d -> (d.Designs.Design.name, d.Designs.Design.network)
  | None ->
    if Sys.file_exists name_or_path then begin
      let name, g = Netlist.Textio.read_file name_or_path in
      (Option.value name ~default:name_or_path, g)
    end
    else
      failwith
        (Printf.sprintf
           "%S is neither a library design nor a netlist file (try \
            'paredown list')"
           name_or_path)

let design_arg =
  let doc = "Library design name (see $(b,list)) or netlist file path." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let shape_args =
  let inputs =
    Arg.(value & opt int 2
         & info [ "inputs" ] ~doc:"Programmable block input pins.")
  in
  let outputs =
    Arg.(value & opt int 2
         & info [ "outputs" ] ~doc:"Programmable block output pins.")
  in
  Term.(
    const (fun i o -> Core.Shape.make ~inputs:i ~outputs:o ())
    $ inputs $ outputs)

let algorithm_arg =
  let alg =
    Arg.enum
      [ ("paredown", `Paredown); ("exhaustive", `Exhaustive);
        ("aggregation", `Aggregation) ]
  in
  Arg.(value & opt alg `Paredown
       & info [ "algorithm"; "a" ]
           ~doc:"Partitioning algorithm: $(b,paredown), $(b,exhaustive), \
                 or $(b,aggregation).")

let backend_of_algorithm = function
  | `Paredown -> Service.Oneshot.Paredown
  | `Exhaustive -> Service.Oneshot.Exhaustive
  | `Aggregation -> Service.Oneshot.Aggregation

(* Dispatch and rendering live in [Service.Oneshot], shared verbatim
   with [paredown serve] — the service's byte-identity promise holds by
   construction, not by keeping two copies in step. *)
let partition_network ~algorithm ~shape g =
  match
    Service.Oneshot.partition ~backend:(backend_of_algorithm algorithm)
      ~shape g
  with
  | Service.Oneshot.Done { solution; _ }
  | Service.Oneshot.Expired { solution; _ } ->
    solution

let print_solution g sol =
  print_string (Service.Oneshot.solution_report g sol)

(* list *)

let list_cmd =
  let run obs =
    with_obs obs @@ fun () ->
    List.iter
      (fun d ->
        Printf.printf "%-28s %2d inner  %s\n" d.Designs.Design.name
          (Designs.Design.inner_count d) d.Designs.Design.description)
      Designs.Library.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in design library.")
    Term.(const run $ obs_term)

(* show *)

let show_cmd =
  let dot_arg =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Write Graphviz to $(docv).")
  in
  let stats_arg =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Print structural statistics instead of \
                                  the netlist.")
  in
  let run obs design dot stats =
    with_obs obs @@ fun () ->
    let name, g = load_network design in
    Printf.printf "%s\n" name;
    if stats then Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.compute g)
    else begin
      Format.printf "%a@." Graph.pp g;
      print_string (Netlist.Textio.to_string ~name g)
    end;
    Option.iter (fun path -> Netlist.Dot.write_file path g) dot
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a design's netlist.")
    Term.(const run $ obs_term $ design_arg $ dot_arg $ stats_arg)

(* partition *)

let partition_cmd =
  let explain_arg =
    Arg.(value & flag
         & info [ "explain" ]
             ~doc:"Print the PareDown run's decision journal (fit \
                   checks, border ranks, removals, accepts) before the \
                   solution.  For a timeline of the run itself use the \
                   global $(b,--trace) $(i,FILE).")
  in
  let run obs design algorithm shape explain =
    with_obs obs @@ fun () ->
    let _, g = load_network design in
    let partition () = partition_network ~algorithm ~shape g in
    if explain && algorithm = `Paredown then begin
      let sol, events = Obs.Journal.record partition in
      List.iter (Format.printf "%a@." Obs.Journal.pp_event) events;
      print_solution g sol
    end
    else print_solution g (partition ())
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Partition a design onto programmable blocks.")
    Term.(
      const run $ obs_term $ design_arg $ algorithm_arg $ shape_args
      $ explain_arg)

(* synth *)

let synth_cmd =
  let emit_c_arg =
    Arg.(value & opt (some string) None
         & info [ "emit-c" ] ~docv:"DIR"
             ~doc:"Write one C file per programmable block into $(docv).")
  in
  let dot_arg =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE"
             ~doc:"Write the synthesised network as Graphviz to $(docv).")
  in
  let verify_arg =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Verify the synthesis: co-simulate original and \
                   synthesised networks on random stimuli, then check \
                   every partition individually (exhaustive proof, \
                   bounded sequential proof, or differential \
                   co-simulation — see doc/verification.md) and print \
                   the per-partition breakdown.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE"
             ~doc:"Write the synthesised netlist (including defblock \
                   sections for the programmable blocks) to $(docv).")
  in
  let run obs design algorithm shape emit_c dot verify save =
    with_obs obs @@ fun () ->
    let name, g = load_network design in
    let sol = partition_network ~algorithm ~shape g in
    let result = Codegen.Replace.apply g sol in
    let g' = result.Codegen.Replace.network in
    print_solution g sol;
    Format.printf "synthesised: %a@." Graph.pp g';
    Option.iter
      (fun path ->
        Netlist.Textio.write_file path ~name:(name ^ " (synthesised)") g')
      save;
    (match emit_c with
     | Some dir ->
       if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
       List.iteri
         (fun i prog_id ->
           let d = Graph.descriptor g' prog_id in
           let path = Filename.concat dir (Printf.sprintf "prog%d.c" (i + 1)) in
           Codegen.C_emit.write_file path
             ~block_name:(Printf.sprintf "%s partition %d" name (i + 1))
             ~n_inputs:d.Eblock.Descriptor.n_inputs
             ~n_outputs:d.Eblock.Descriptor.n_outputs
             d.Eblock.Descriptor.behavior;
           Printf.printf "wrote %s (approx. %d words)\n" path
             (Codegen.Size.estimate_words d.Eblock.Descriptor.behavior))
         result.Codegen.Replace.programmable_ids
     | None -> ());
    Option.iter (fun path -> Netlist.Dot.write_file path g') dot;
    if verify then begin
      (match
         Sim.Equiv.check_random ~reference:g ~candidate:g' ~seed:99 ~steps:60
       with
       | Ok () ->
         print_endline "verify: settled outputs match on 60 random steps"
       | Error m ->
         Format.printf "verify FAILED: %a@." Sim.Equiv.pp_mismatch m;
         exit 1);
      let report = Codegen.Verify.check_solution g sol in
      Format.printf "@[<v 2>verify per partition:@,%a@]@."
        Codegen.Verify.pp_report report;
      if not (Codegen.Verify.ok report) then begin
        print_endline "verify FAILED: a partition has a counterexample";
        exit 1
      end
    end
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Partition, replace with programmable blocks, and optionally \
             emit C and verify.")
    Term.(
      const run $ obs_term $ design_arg $ algorithm_arg $ shape_args
      $ emit_c_arg $ dot_arg $ verify_arg $ save_arg)

(* simulate *)

let simulate_cmd =
  let steps_arg =
    Arg.(value & opt steps_conv 20
         & info [ "steps" ] ~doc:"Random sensor flips to apply.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Stimulus seed.")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"FILE"
             ~doc:"Also dump the primary-output waveform as VCD to $(docv).")
  in
  let faults_arg =
    Arg.(value & opt (some family_conv) None
         & info [ "faults" ] ~docv:"FAMILY"
             ~doc:"Replay under a fault plan drawn from this family \
                   (seeded by --seed); the VCD dump then carries one \
                   cumulative strike-counter signal per fault class in \
                   a $(b,faults) scope (see doc/fault-injection.md).")
  in
  let run obs design steps seed vcd family =
    with_obs obs @@ fun () ->
    let name, g = load_network design in
    let faults =
      Option.map (fun f -> Reliability.Family.plan f ~seed g) family
    in
    let engine =
      match faults with
      | None -> Sim.Engine.create g
      | Some faults -> Sim.Engine.create ~faults g
    in
    let rng = Prng.create seed in
    let script =
      Sim.Stimulus.random ~rng ~sensors:(Graph.sensors g) ~steps ~spacing:20
    in
    Printf.printf "%s: applying %d random sensor changes%s\n" name steps
      (match family with
       | Some f -> " under " ^ Reliability.Family.to_string f
       | None -> "");
    let observations = Sim.Stimulus.settled_outputs engine script in
    List.iter
      (fun (time, outputs) ->
        Format.printf "@%4d  %a@." time
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "  ")
             (fun ppf (id, v) ->
               Format.fprintf ppf "out%d=%a" id Behavior.Ast.pp_value v))
          outputs)
      observations;
    Printf.printf "block activations: %d, packets: %d\n"
      (Sim.Engine.activation_count engine)
      (Sim.Engine.packet_count engine);
    Option.iter
      (fun path -> Sim.Vcd.write_file path ?faults g script)
      vcd
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Drive a design with random stimuli.")
    Term.(
      const run $ obs_term $ design_arg $ steps_arg $ seed_arg $ vcd_arg
      $ faults_arg)

(* faults *)

let faults_cmd =
  let design_opt =
    let doc =
      "Library design name or netlist file; every Table 1 design when \
       omitted."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 11
         & info [ "seed" ]
             ~doc:"Master seed for the stimulus script and every fault \
                   plan; equal seeds reproduce the table byte for byte.")
  in
  let trials_arg =
    Arg.(value & opt trials_conv 20
         & info [ "trials" ] ~doc:"Fault-plan seeds per drop rate.")
  in
  let drops_arg =
    Arg.(value & opt (list rate_conv) [ 0.02; 0.05; 0.10 ]
         & info [ "drop" ] ~docv:"RATES"
             ~doc:"Comma-separated per-packet drop probabilities to sweep.")
  in
  let steps_arg =
    Arg.(value & opt steps_conv 30
         & info [ "steps" ] ~doc:"Sensor flips in the stimulus script.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  let run obs design seed trials drops steps csv =
    with_obs obs @@ fun () ->
    let config =
      {
        Experiments.Faults.default_config with
        seed; trials; drop_rates = drops; steps;
      }
    in
    let rows =
      match design with
      | None -> Experiments.Faults.run ~config ()
      | Some d ->
        let name, g = load_network d in
        Experiments.Faults.run_network ~config ~name g
    in
    print_string (Experiments.Faults.to_table rows);
    print_endline (Experiments.Faults.summary rows);
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Experiments.Faults.to_csv rows)))
      csv
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Sweep seeded packet-drop faults over flat and synthesised \
             networks and tally the degradation outcomes (identical / \
             glitch-recovered / wrong-value / diverged).")
    Term.(
      const run $ obs_term $ design_opt $ seed_arg $ trials_arg $ drops_arg
      $ steps_arg $ csv_arg)

(* reliability *)

let reliability_cmd =
  let design_opt =
    let doc =
      "Library design name or netlist file; every Table 1 design when \
       omitted."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ]
             ~doc:"Master seed for the stimulus script and every trial's \
                   fault plan; equal seeds reproduce the table byte for \
                   byte.")
  in
  let trials_arg =
    Arg.(value & opt trials_conv 32
         & info [ "trials" ] ~doc:"Monte-Carlo trials per scored solution.")
  in
  let family_arg =
    Arg.(value
         & opt family_conv Reliability.Estimator.default_config.family
         & info [ "family" ] ~docv:"FAMILY"
             ~doc:"Fault-plan family: $(b,drop:R), \
                   $(b,chaos:DROP,DUP,CORRUPT,JITTER), or \
                   $(b,brownout:R@T1,T2,...).")
  in
  let lambdas_arg =
    Arg.(value & opt (list float) [ 0.; 1.; 4.; 16.; 64. ]
         & info [ "lambdas" ] ~docv:"Λ"
             ~doc:"Comma-separated λ values to sweep (blocks + λ × \
                   expected severity).")
  in
  let show_arg =
    Arg.(value & opt (some float) None
         & info [ "show" ] ~docv:"λ"
             ~doc:"Also print the reliability-weighted solution at this \
                   λ (requires a single $(i,DESIGN)).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  let run obs design seed trials family lambdas show csv =
    with_obs obs @@ fun () ->
    let estimator =
      { Reliability.Estimator.default_config with seed; trials; family }
    in
    let config =
      { Experiments.Reliability.default_config with estimator; lambdas }
    in
    let report =
      match design with
      | None -> Experiments.Reliability.run ~config ()
      | Some d ->
        let name, g = load_network d in
        Experiments.Reliability.run_network ~config ~name g
    in
    print_string (Experiments.Reliability.to_table report);
    print_endline (Experiments.Reliability.summary report);
    (match show, design with
     | Some lambda, Some d ->
       let _, g = load_network d in
       let cache = Reliability.Estimator.cache () in
       let solution, report =
         match
           Service.Oneshot.weighted ~cache ~lambda ~family ~trials ~seed
             ~shape:Core.Shape.default g
         with
         | Service.Oneshot.Done { solution; report; _ }
         | Service.Oneshot.Expired { solution; report; _ } ->
           (solution, report)
       in
       Printf.printf "\n%s" report;
       (* Served from the cache the weighted search just filled, so the
          blame vector describes exactly the solution printed above. *)
       let est =
         Reliability.Estimator.estimate_solution ~cache estimator g solution
       in
       Printf.printf
         "\nblame vector (severity mass per fault site; components sum to \
          the solution's severity %.4f ±ε):\n"
         est.Reliability.Estimator.mean;
       print_string
         (Reliability.Estimator.blame_table est.Reliability.Estimator.blame)
     | Some _, None ->
       failwith "--show needs a single DESIGN to refine"
     | None, _ -> ());
    Option.iter
      (fun path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () ->
            output_string oc (Experiments.Reliability.to_csv report)))
      csv
  in
  Cmd.v
    (Cmd.info "reliability"
       ~doc:"Sweep the reliability-weighted objective over λ under a \
             seeded fault-plan family and print the cost/expected-\
             degradation Pareto front (flat, λ-weighted, and \
             lexicographic modes).")
    Term.(
      const run $ obs_term $ design_opt $ seed_arg $ trials_arg $ family_arg
      $ lambdas_arg $ show_arg $ csv_arg)

(* observe: the network observatory (doc/network-telemetry.md) *)

let observe_cmd =
  let faults_arg =
    Arg.(value & opt (some family_conv) None
         & info [ "faults" ] ~docv:"FAMILY"
             ~doc:"Fault-plan family to observe under: $(b,drop:R), \
                   $(b,chaos:DROP,DUP,CORRUPT,JITTER), or \
                   $(b,brownout:R@T1,T2,...).  Without it the run is \
                   fault-free (pure utilization).")
  in
  let seed_arg =
    Arg.(value & opt int Experiments.Netobs.default_config.seed
         & info [ "seed" ]
             ~doc:"Master seed for the stimulus script and trial plans; \
                   equal seeds reproduce every report byte for byte.")
  in
  let trials_arg =
    Arg.(value & opt trials_conv Experiments.Netobs.default_config.trials
         & info [ "trials" ] ~doc:"Monte-Carlo replays to merge.")
  in
  let steps_arg =
    Arg.(value & opt steps_conv Experiments.Netobs.default_config.steps
         & info [ "steps" ] ~doc:"Stimulus script length (sensor flips).")
  in
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the trial fan-out; the output is \
                   byte-identical for every $(docv).")
  in
  let netobs_arg =
    Arg.(value & opt (some string) None
         & info [ "netobs" ] ~docv:"FILE"
             ~doc:"Write the versioned paredown-netobs JSON report to \
                   $(docv).")
  in
  let timeline_arg =
    Arg.(value & opt (some string) None
         & info [ "timeline" ] ~docv:"FILE"
             ~doc:"Write a Chrome-trace timeline of the first trial (one \
                   lane per node) to $(docv); open in chrome://tracing or \
                   Perfetto.")
  in
  let run obs design faults seed trials steps jobs netobs timeline =
    with_obs obs @@ fun () ->
    let name, g = load_network design in
    let config =
      {
        Experiments.Netobs.default_config with
        seed;
        trials;
        steps;
        family = faults;
      }
    in
    let o = Experiments.Netobs.observe_network ~jobs ~config ~name g in
    (match o.Experiments.Netobs.family with
     | Some family ->
       Printf.printf
         "%s: %d trials under %s (seed %d) — ok %d gl %d wr %d dv %d, \
          severity %.3f\n"
         name o.Experiments.Netobs.trials
         (Reliability.Family.to_string family)
         seed o.Experiments.Netobs.identical o.Experiments.Netobs.recovered
         o.Experiments.Netobs.wrong o.Experiments.Netobs.diverged
         o.Experiments.Netobs.severity;
       Printf.printf
         "\nblame vector (severity mass per fault site; components sum to \
          %.4f ±ε):\n"
         o.Experiments.Netobs.severity;
       print_string
         (Reliability.Estimator.blame_table o.Experiments.Netobs.blame)
     | None ->
       Printf.printf "%s: fault-free instrumented replay (seed %d)\n" name
         seed);
    let tel = o.Experiments.Netobs.telemetry in
    Printf.printf
      "\nnodes (events %d, settles %d, queue high-water %d, clock %d):\n"
      (Sim.Telemetry.events tel)
      (Sim.Telemetry.settles tel)
      (Sim.Telemetry.queue_hwm tel)
      (Sim.Telemetry.clock tel);
    print_string (Sim.Telemetry.node_table g tel);
    Printf.printf "\nlink utilization (all trials merged):\n";
    print_string (Sim.Telemetry.utilization_table tel);
    Option.iter
      (fun path ->
        Experiments.Netobs.write_report o path;
        Printf.printf "\nnetobs report written to %s\n" path)
      netobs;
    Option.iter
      (fun path ->
        let recording = Experiments.Netobs.record_timeline ~config g in
        Sim.Telemetry.write_timeline g recording path;
        Printf.printf "timeline (%d events, %d dropped) written to %s\n"
          (Sim.Telemetry.timeline_events recording)
          (Sim.Telemetry.timeline_dropped recording)
          path)
      timeline
  in
  Cmd.v
    (Cmd.info "observe"
       ~doc:"Observe a network's runtime behaviour per node and per link \
             — deliveries, fault strikes, queue high-water marks, \
             delivery latencies — under a seeded fault family, with \
             severity blame attribution, a paredown-netobs JSON report, \
             and a Chrome-trace timeline.")
    Term.(
      const run $ obs_term $ design_arg $ faults_arg $ seed_arg $ trials_arg
      $ steps_arg $ jobs_arg $ netobs_arg $ timeline_arg)

(* generate *)

let generate_cmd =
  let inner_arg =
    Arg.(value & opt int 15 & info [ "inner" ] ~doc:"Inner block count.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Generator seed.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Write the netlist to $(docv).")
  in
  let run obs inner seed save =
    with_obs obs @@ fun () ->
    let rng = Prng.create seed in
    let g = Randgen.Generator.generate ~rng ~inner () in
    let name = Printf.sprintf "random-%d-%d" inner seed in
    (match save with
     | Some path -> Netlist.Textio.write_file path ~name g
     | None -> print_string (Netlist.Textio.to_string ~name g));
    Format.eprintf "%a@." Graph.pp g
  in
  Cmd.v (Cmd.info "generate" ~doc:"Generate a random eBlock design.")
    Term.(const run $ obs_term $ inner_arg $ seed_arg $ save_arg)

(* perf: record / compare / profile (see doc/observability.md) *)

let perf_record_cmd =
  let out_arg =
    Arg.(value & opt string "perf-snapshot.json"
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Where to write the snapshot JSON.")
  in
  let repeats_arg =
    Arg.(value & opt int 3
         & info [ "repeats" ]
             ~doc:"Timed passes per group; the minimum wall time is kept \
                   (scheduler-noise floor).  Counters come from a single \
                   warmup pass and do not depend on this.")
  in
  let run out repeats =
    let snapshot = Experiments.Perf.record ~repeats () in
    Obs.Snapshot.write_file snapshot out;
    Printf.printf "recorded %d groups, %d metrics (git %s) -> %s\n"
      (List.length snapshot.Obs.Snapshot.times_ns)
      (List.length snapshot.Obs.Snapshot.metrics)
      (match snapshot.Obs.Snapshot.git_rev with
       | Some r -> String.sub r 0 (min 12 (String.length r))
       | None -> "unknown")
      out
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:"Run the perf suite (one workload per group) and write \
             a snapshot JSON: min-of-k wall times plus the full metrics \
             registry.")
    Term.(const run $ out_arg $ repeats_arg)

let perf_compare_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"OLD" ~doc:"Baseline snapshot JSON.")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None
         & info [] ~docv:"NEW" ~doc:"Candidate snapshot JSON.")
  in
  let max_ratio_arg =
    Arg.(value & opt float 1.5
         & info [ "max-ratio" ]
             ~doc:"A wall time regresses when it exceeds baseline times \
                   this ratio (and the absolute floor).")
  in
  let min_ms_arg =
    Arg.(value & opt float 1.0
         & info [ "min-ms" ]
             ~doc:"Absolute floor: wall-time growth below this many \
                   milliseconds never gates (jitter suppression).")
  in
  let counter_ratio_arg =
    Arg.(value & opt float 1.1
         & info [ "counter-ratio" ]
             ~doc:"Work counters are deterministic, so they gate at this \
                   tighter ratio.")
  in
  let min_count_arg =
    Arg.(value & opt float 1000.
         & info [ "min-count" ]
             ~doc:"Absolute floor on counter growth before it gates.")
  in
  let load path =
    match Obs.Snapshot.read_file path with
    | Ok s -> s
    | Error msg ->
      Printf.eprintf "paredown perf compare: %s: %s\n" path msg;
      exit 2
  in
  let run old_path new_path max_ratio min_ms counter_ratio min_count =
    let base = load old_path and cur = load new_path in
    if base.Obs.Snapshot.config <> cur.Obs.Snapshot.config then
      Printf.eprintf
        "warning: snapshot configs differ (%s vs %s) — counter \
         comparisons may be spurious\n"
        (String.concat ","
           (List.map (fun (k, v) -> k ^ "=" ^ v) base.Obs.Snapshot.config))
        (String.concat ","
           (List.map (fun (k, v) -> k ^ "=" ^ v) cur.Obs.Snapshot.config));
    print_string (Obs.Snapshot.render_diff ~base cur);
    let regressions =
      Obs.Snapshot.gate ~max_ratio ~min_abs_ns:(min_ms *. 1e6)
        ~counter_max_ratio:counter_ratio ~min_abs_count:min_count ~base cur
    in
    print_newline ();
    match regressions with
    | [] -> print_endline "gate: ok (no regressions)"
    | rs ->
      List.iter
        (fun r ->
          Printf.printf "REGRESSION %s: %s -> %s (x%.2f)\n"
            r.Obs.Snapshot.r_metric
            (Obs.Metrics.pp_quantity
               ~time:(Obs.Metrics.is_time_name r.Obs.Snapshot.r_metric)
               r.Obs.Snapshot.r_base)
            (Obs.Metrics.pp_quantity
               ~time:(Obs.Metrics.is_time_name r.Obs.Snapshot.r_metric)
               r.Obs.Snapshot.r_cur)
            r.Obs.Snapshot.r_ratio)
        rs;
      exit 1
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Diff two perf snapshots and gate: exit nonzero when a wall \
             time or work counter regresses past the thresholds.")
    Term.(
      const run $ old_arg $ new_arg $ max_ratio_arg $ min_ms_arg
      $ counter_ratio_arg $ min_count_arg)

let perf_profile_cmd =
  let steps_arg =
    Arg.(value & opt steps_conv 30
         & info [ "steps" ] ~doc:"Random sensor flips to simulate.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Stimulus seed.")
  in
  let top_arg =
    Arg.(value & opt int 15
         & info [ "top" ] ~doc:"Rows in the self-time table.")
  in
  let run design steps seed top =
    let name, g = load_network design in
    Obs.Journal.start_spans ();
    Fun.protect ~finally:(fun () -> ignore (Obs.Journal.stop_spans ()))
      (fun () ->
        (* The full pipeline, once: partition, rewrite, emit C for every
           programmable block, then simulate the synthesised network. *)
        let sol = (Core.Paredown.run g).Core.Paredown.solution in
        let result = Codegen.Replace.apply g sol in
        let g' = result.Codegen.Replace.network in
        List.iter
          (fun prog_id ->
            let d = Graph.descriptor g' prog_id in
            ignore
              (Codegen.C_emit.program
                 ~n_inputs:d.Eblock.Descriptor.n_inputs
                 ~n_outputs:d.Eblock.Descriptor.n_outputs
                 d.Eblock.Descriptor.behavior))
          result.Codegen.Replace.programmable_ids;
        let engine = Sim.Engine.create g' in
        let script =
          Sim.Stimulus.random ~rng:(Prng.create seed)
            ~sensors:(Graph.sensors g') ~steps ~spacing:20
        in
        ignore (Sim.Stimulus.settled_outputs engine script);
        Obs.Journal.stop_spans ())
    |> Obs.Profile.of_spans
    |> Obs.Profile.to_table ~top
    |> Printf.printf "%s: one synth+simulate run, by span self time\n\n%s"
         name
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run partition -> rewrite -> C emission -> simulation once \
             with spans recorded and print the per-phase self-time \
             breakdown.")
    Term.(const run $ design_arg $ steps_arg $ seed_arg $ top_arg)

let perf_cmd =
  Cmd.group
    (Cmd.info "perf"
       ~doc:"Perf snapshots and the regression gate: record a snapshot, \
             compare two, or profile one run per phase.")
    [ perf_record_cmd; perf_compare_cmd; perf_profile_cmd ]

(* explain: query a provenance journal (see doc/provenance.md) *)

let explain_load path =
  match Obs.Journal.load_file path with
  | Ok l -> l
  | Error msg ->
    Printf.eprintf "paredown explain: %s: %s\n" path msg;
    exit 2

let journal_pos n =
  Arg.(required & pos n (some file) None
       & info [] ~docv:"JOURNAL"
           ~doc:"Journal JSONL file (from --journal) or post-mortem \
                 bundle (from --flight-record).")

let explain_summary_cmd =
  let run path = print_string (Obs.Journal.summary (explain_load path)) in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Per-phase decision counts by kind, the reject-reason \
             histogram, and the fit-check total (which matches the \
             run's core.paredown.fit_checks metric).")
    Term.(const run $ journal_pos 0)

let explain_why_cmd =
  let node_arg =
    Arg.(required & pos 0 (some int) None
         & info [] ~docv:"NODE" ~doc:"Block id to trace.")
  in
  let run node path = print_string (Obs.Journal.why ~node (explain_load path)) in
  Cmd.v
    (Cmd.info "why"
       ~doc:"Every recorded decision that touched a block, in journal \
             order.")
    Term.(const run $ node_arg $ journal_pos 1)

let explain_diff_cmd =
  let run a b =
    print_endline (Obs.Journal.diff (explain_load a) (explain_load b))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare two journals: reports identical, or names the \
             first divergent decision.")
    Term.(const run $ journal_pos 0 $ journal_pos 1)

let explain_cmd =
  Cmd.group
    (Cmd.info "explain"
       ~doc:"Query a search provenance journal recorded with --journal \
             or --flight-record: summarise decisions, trace a block, or \
             diff two runs.")
    [ explain_summary_cmd; explain_why_cmd; explain_diff_cmd ]

(* serve / submit: the batch synthesis service (see doc/service.md) *)

let serve_cmd =
  let jobs_arg =
    Arg.(value & opt int 1
         & info [ "jobs"; "j" ]
             ~doc:"Worker domains for the cache-miss fan-out.  Responses \
                   are byte-identical across values (mask wall-clock \
                   fields with PAREDOWN_STABLE_TIMES=1 to diff).")
  in
  let queue_arg =
    Arg.(value & opt int 256
         & info [ "queue" ]
             ~doc:"Requests accepted per batch; the rest are answered \
                   $(b,rejected) with a reason (backpressure).")
  in
  let cache_arg =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"Persist the solution cache to $(docv) (versioned \
                   JSON, written atomically; loaded at boot, flushed \
                   incrementally and at every drain).")
  in
  let capacity_arg =
    Arg.(value & opt int Service.Cache.default_capacity
         & info [ "capacity" ]
             ~doc:"Solution-cache bound (least-recently-used eviction).")
  in
  let run obs jobs queue cache capacity =
    (* stdout is the wire: --metrics must not corrupt the frame stream. *)
    with_obs ~metrics_out:stderr obs @@ fun () ->
    let config =
      {
        Service.Server.jobs; queue; cache_path = cache; capacity;
        log = (fun m -> Printf.eprintf "paredown serve: %s\n%!" m);
      }
    in
    ignore (Service.Server.run ~config stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident batch synthesis server: length-prefixed \
             JSON request frames on stdin (see $(b,submit)), one \
             response frame per request plus a batch summary on stdout, \
             behind a fingerprint-keyed solution cache.")
    Term.(
      const run $ obs_term $ jobs_arg $ queue_arg $ cache_arg $ capacity_arg)

let submit_cmd =
  let designs_arg =
    Arg.(value & pos_all string []
         & info [] ~docv:"DESIGN"
             ~doc:"Library design name or netlist file (files are \
                   embedded inline).  One request per design.")
  in
  let table1_arg =
    Arg.(value & flag
         & info [ "table1" ] ~doc:"Submit every Table 1 design.")
  in
  let op_arg =
    let op = Arg.enum [ ("partition", `Partition); ("weighted", `Weighted) ] in
    Arg.(value & opt op `Partition
         & info [ "op" ] ~doc:"Request kind: $(b,partition) or \
                               $(b,weighted) (reliability-weighted).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Per-request budget for the exhaustive backend.")
  in
  let lambda_arg =
    Arg.(value & opt float 1.0
         & info [ "lambda" ] ~doc:"Severity weight of weighted requests.")
  in
  let family_arg =
    Arg.(value & opt family_conv Reliability.Estimator.default_config.family
         & info [ "family" ] ~docv:"FAMILY"
             ~doc:"Fault-plan family of weighted requests.")
  in
  let trials_arg =
    Arg.(value & opt trials_conv Service.Protocol.default_trials
         & info [ "trials" ] ~doc:"Monte-Carlo trials of weighted requests.")
  in
  let seed_arg =
    Arg.(value & opt int Service.Protocol.default_seed
         & info [ "seed" ] ~doc:"Seed of weighted requests.")
  in
  let repeat_arg =
    Arg.(value & opt int 1
         & info [ "repeat" ]
             ~doc:"Submit the whole request list this many times (cache \
                   exercise).")
  in
  let decode_arg =
    Arg.(value & opt (some string) None
         & info [ "decode" ] ~docv:"FILE"
             ~doc:"Decode a response stream ($(b,-) for stdin) instead \
                   of emitting requests: print each ok response's \
                   output verbatim, other statuses as one '# id status' \
                   comment line each.")
  in
  let summary_arg =
    Arg.(value & flag
         & info [ "summary" ]
             ~doc:"With $(b,--decode): print only the batch summary as \
                   one key=value line.")
  in
  let run obs designs table1 op backend deadline lambda family trials seed
      repeat decode summary =
    (* Encode mode writes request frames on stdout; keep --metrics off
       the wire there too. *)
    with_obs ~metrics_out:stderr obs @@ fun () ->
    match decode with
    | Some path ->
      let ic = if path = "-" then stdin else open_in path in
      Fun.protect
        ~finally:(fun () -> if path <> "-" then close_in ic)
        (fun () ->
          let rec loop () =
            match Service.Protocol.read_frame ic with
            | None -> ()
            | Some frame ->
              (if Service.Protocol.is_summary frame then begin
                 if summary then
                   match Service.Protocol.summary_line frame with
                   | Ok line -> print_endline line
                   | Error e -> Printf.eprintf "paredown submit: %s\n" e
               end
               else if not summary then
                 match Service.Protocol.parse_response frame with
                 | Error e -> Printf.eprintf "paredown submit: %s\n" e
                 | Ok r -> (
                   match r.Service.Protocol.status with
                   | Service.Protocol.Ok_ ->
                     print_string r.Service.Protocol.output
                   | s ->
                     Printf.printf "# %s %s: %s\n" r.Service.Protocol.r_id
                       (Service.Protocol.status_to_string s)
                       (String.concat " | "
                          (String.split_on_char '\n'
                             r.Service.Protocol.output))));
              loop ()
          in
          try loop ()
          with Service.Protocol.Framing_error e ->
            (* A truncated or corrupted response stream is an input
               error, not an internal one. *)
            Printf.eprintf "paredown submit: corrupt response stream: %s\n" e;
            exit 1)
    | None ->
      let base =
        if table1 then
          List.map (fun d -> `Library d.Designs.Design.name)
            Designs.Library.table1
        else
          List.map
            (fun d ->
              if Option.is_some (Designs.Library.find d) then `Library d
              else if Sys.file_exists d then begin
                let ic = open_in_bin d in
                let text =
                  Fun.protect
                    ~finally:(fun () -> close_in ic)
                    (fun () -> really_input_string ic (in_channel_length ic))
                in
                `Inline text
              end
              else failwith (Printf.sprintf "unknown design %S" d))
            designs
      in
      if base = [] then failwith "nothing to submit (name designs or --table1)";
      let op_of_design () =
        match op with
        | `Partition ->
          Service.Protocol.Partition
            { backend = backend_of_algorithm backend; deadline_s = deadline }
        | `Weighted ->
          Service.Protocol.Weighted { lambda; family; trials; seed }
      in
      let n = ref 0 in
      for _ = 1 to max 1 repeat do
        List.iter
          (fun d ->
            incr n;
            let design, design_text =
              match d with
              | `Library name -> (Some name, None)
              | `Inline text -> (None, Some text)
            in
            let r =
              {
                Service.Protocol.id = Printf.sprintf "r%d" !n;
                op = op_of_design ();
                design;
                design_text;
                inputs = 2;
                outputs = 2;
              }
            in
            Service.Protocol.write_frame stdout
              (Service.Protocol.render_request r))
          base
      done;
      Service.Protocol.write_frame stdout Service.Protocol.drain_frame
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Build request frames for $(b,paredown serve) (default), or \
             decode a response stream with $(b,--decode).  Compose with \
             a shell pipe: paredown submit D | paredown serve | \
             paredown submit --decode -")
    Term.(
      const run $ obs_term $ designs_arg $ table1_arg $ op_arg
      $ algorithm_arg $ deadline_arg $ lambda_arg $ family_arg $ trials_arg
      $ seed_arg $ repeat_arg $ decode_arg $ summary_arg)

let () =
  Obs.Journal.maybe_enable_from_env ();
  let info =
    Cmd.info "paredown"
      ~doc:"eBlock system synthesis: partitioning networks of pre-defined \
            blocks onto programmable blocks (DATE 2005 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; show_cmd; partition_cmd; synth_cmd; simulate_cmd;
            faults_cmd; reliability_cmd; observe_cmd; generate_cmd;
            perf_cmd; explain_cmd; serve_cmd; submit_cmd ]))

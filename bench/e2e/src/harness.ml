(* The closed loop around a workload: set-up (three times, median
   reported), warm-up, a timed window of whole units, the correctness
   gates, and the metrics.  One client, no think time.

   A traced run measures the same ops twice, untraced and then with
   spans on, and reports per-layer metrics instead of end-to-end ones:
   end-to-end numbers always come from untraced ops. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms"); ("peak_rss_mb", "MB"); ("blocks_ratio", "ratio") ]

type per_op = Ops | Hits | Misses | Batches

type source =
  | Span of string * per_op  (** self time of a span name *)
  | Count of string  (** [Obs.Metrics] counter delta over pass 0, per op *)
  | Derived  (** computed below or supplied by the workload *)

let per_layer =
  [ ("netlist.textio.ms_per_op", "ms", Span ("netlist.textio", Ops));
    ("core.paredown.ms_per_op", "ms", Span ("core.paredown", Ops));
    ("core.paredown.fit_checks_per_op", "count", Count "core.paredown.fit_checks");
    ("core.exhaustive.ms_per_op", "ms", Span ("core.exhaustive", Ops));
    ("core.exhaustive.nodes_per_op", "count", Count "core.exhaustive.nodes_explored");
    ("core.optimality_gap", "ratio", Derived);
    ("core.paredown_weighted.ms_per_op", "ms", Span ("core.paredown_weighted", Ops));
    ("codegen.replace.ms_per_op", "ms", Span ("codegen.replace", Ops));
    ("codegen.c_emit.ms_per_op", "ms", Span ("codegen.c_emit", Ops));
    ("codegen.c_bytes_per_op", "B", Count "codegen.c_bytes");
    ("codegen.verify.ms_per_op", "ms", Span ("codegen.verify", Ops));
    ("codegen.verify.cosim_share", "ratio", Derived);
    ("sim.equiv.ms_per_op", "ms", Span ("sim.equiv", Ops));
    ("sim.events_per_op", "count", Count "sim.events_processed");
    ("sim.settles_per_op", "count", Count "sim.settles");
    ("sim.events_per_s", "1/s", Derived);
    ("reliability.estimate.ms_per_op", "ms", Span ("reliability.estimate", Ops));
    ("reliability.ns_per_event", "ns", Derived);
    ("reliability.cache_hit_ratio", "ratio", Derived);
    ("reliability.trials_per_op", "count", Count "reliability.trials");
    ("service.report.ms_per_op", "ms", Span ("service.report", Ops));
    ("service.protocol.ms_per_req", "ms", Span ("service.protocol", Ops));
    ("service.resolve.ms_per_req", "ms", Span ("service.resolve", Ops));
    ("service.canon.ms_per_req", "ms", Span ("service.canon", Ops));
    ("service.cache.find_ms_per_req", "ms", Span ("service.cache.find", Ops));
    ("service.cache.replay_ms_per_hit", "ms", Span ("service.cache.replay", Hits));
    ("service.compute.ms_per_miss", "ms", Span ("service.compute", Misses));
    ("service.cache.insert_ms_per_miss", "ms", Span ("service.cache.insert", Misses));
    ("service.cache.save_ms_per_batch", "ms", Span ("service.cache.save", Batches));
    ("service.wait_ms_per_req", "ms", Derived);
    ("service.cache_hit_ratio", "ratio", Derived);
    ("service.evictions_per_batch", "1/batch", Derived);
    ("service.unique_misses_per_batch", "1/batch", Derived);
    ("unattributed.ms_per_op", "ms", Derived);
    ("trace.overhead", "ratio", Derived) ]

let max_unattributed = 0.05
let setup_repeats = 3

(* ------------------------------------------------------------------ *)
(* Statistics *)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let n = List.length sorted in
    let rank = int_of_float (Float.ceil (p *. float n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

(* ------------------------------------------------------------------ *)

type window = {
  units : unit_result list;  (** in run order *)
  seconds : float;
}

let ops w = List.fold_left (fun a u -> a + List.length u.samples) 0 w.units
let rate w = float (ops w) /. w.seconds
let samples w = List.concat_map (fun u -> u.samples) w.units
let busy w = List.fold_left (fun a u -> a +. u.busy_ns) 0. w.units

(* Whole units from [first] until [seconds] have elapsed (or [count]
   units have run, when given). *)
let window ?count ~seconds run first =
  let t0 = Obs.Clock.now_ns () in
  let rec go i acc =
    let elapsed = Obs.Clock.elapsed_s t0 in
    let stop =
      match count with Some n -> i >= first + n | None -> elapsed >= seconds
    in
    if stop then { units = List.rev acc; seconds = elapsed }
    else go (i + 1) (run i :: acc)
  in
  go first []

let counter_names =
  List.filter_map (function _, _, Count c -> Some c | _ -> None) per_layer
  @ [ "reliability.cache_hits"; "reliability.cache_misses" ]

(* Counter deltas over one unit: a full pass, so they repeat exactly. *)
let counted run i =
  let before = List.map counter counter_names in
  let u = run i in
  let deltas =
    List.map2 (fun name b -> (name, float (counter name - b))) counter_names before
  in
  (u, deltas)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  input_digest : string;
  output_digest : string;
}

(* Gate: an op's output digest is the same in every unit that ran it. *)
let count_failures all =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun failed s ->
      let mismatch =
        match Hashtbl.find_opt seen s.s_key with
        | Some d -> d <> s.out_digest
        | None ->
          Hashtbl.replace seen s.s_key s.out_digest;
          false
      in
      (match s.s_error with
       | Some e -> Printf.eprintf "e2e: op %s failed: %s\n%!" s.s_key e
       | None ->
         if mismatch then
           Printf.eprintf "e2e: op %s output differs across passes\n%!" s.s_key);
      if s.s_error <> None || mismatch then failed + 1 else failed)
    0 all

let layer_table ~busy_ns ~n =
  let rows =
    List.map
      (fun name ->
        let ns = Spans.self_ns name in
        [ name; Printf.sprintf "%.3f" (ns /. 1e6 /. float n);
          Printf.sprintf "%.1f%%" (100. *. ns /. busy_ns) ])
      (Spans.names ())
  in
  let un = busy_ns -. Spans.total_self_ns () in
  Obs.Metrics.render_table
    ((("layer (self time)" :: [ "ms/op"; "share" ]) :: rows)
    @ [ [ "unattributed"; Printf.sprintf "%.3f" (un /. 1e6 /. float n);
          Printf.sprintf "%.1f%%" (100. *. un /. busy_ns) ] ])

let run ~setup ~seconds ~trace_file =
  let timed = List.init setup_repeats (fun _ -> time_ns setup) in
  let setup_s = median (List.map (fun (_, ns) -> ns /. 1e9) timed) in
  let inst = fst (List.nth timed (setup_repeats - 1)) in
  List.iteri (fun i (s, _) -> if i < setup_repeats - 1 then s.finish ()) timed;
  let traced = trace_file <> None in
  Fun.protect ~finally:inst.finish @@ fun () ->
  (* Warm-up.  Its first unit is the pass the counters are read over;
     for serve-mixed they come from the replay's first batch instead. *)
  let unit0, counts0 = counted inst.run_unit 0 in
  let warm = unit0 :: List.init (inst.warmup - 1) (fun i -> inst.run_unit (i + 1)) in
  let events0 = counter "sim.events_processed" in
  let main =
    window ~seconds:(if traced then seconds /. 2. else seconds) inst.run_unit inst.warmup
  in
  let main_events = counter "sim.events_processed" - events0 in
  let peak_rss_mb = inst.peak_rss_mb () in
  let all = List.concat_map (fun u -> u.samples) warm @ samples main in
  let traced_run f =
    Spans.reset ();
    Spans.enabled := true;
    let events = counter "sim.events_processed" in
    let w = Fun.protect ~finally:(fun () -> Spans.enabled := false) f in
    (w, counter "sim.events_processed" - events)
  in
  (* The untraced and the traced measurement of the same ops, with the
     counted pass and the simulator events of the untraced one. *)
  let layer =
    if not traced then None
    else
      match inst.replay with
      | None ->
        let next = inst.warmup + List.length main.units in
        let tw, traced_events =
          traced_run (fun () -> window ~seconds:(seconds /. 2.) inst.run_unit next)
        in
        Some ((main, main_events, counts0), (tw, traced_events), samples tw)
      | Some replay ->
        let count = List.length main.units in
        let warmed () =
          let r = replay () in
          let _, c0 = counted r 0 in
          for i = 1 to inst.warmup - 1 do ignore (r i) done;
          (r, c0)
        in
        let r, c0 = warmed () in
        let events = counter "sim.events_processed" in
        let plain = window ~count ~seconds r inst.warmup in
        let plain_events = counter "sim.events_processed" - events in
        let r, _ = warmed () in
        let tw, traced_events =
          traced_run (fun () -> window ~count ~seconds r inst.warmup)
        in
        Some ((plain, plain_events, c0), (tw, traced_events), [])
  in
  Option.iter Spans.write_chrome trace_file;
  let all = match layer with Some (_, _, extra) -> all @ extra | None -> all in
  let ops0 = float (max 1 (List.length unit0.samples)) in
  let metrics =
    match layer with
    | None ->
      let window_ns = List.map (fun s -> s.ns) (samples main) in
      (* Over the whole warm-up: a pass, or 64 served batches. *)
      let before, after =
        List.fold_left
          (fun (b, a) s -> (b + fst s.s_blocks, a + snd s.s_blocks))
          (0, 0)
          (List.concat_map (fun u -> u.samples) warm)
      in
      let e2e =
        [ ("setup_s", setup_s); ("ops_per_s", rate main);
          ("latency_p50_ms", percentile 0.5 window_ns /. 1e6);
          ("latency_p99_ms", percentile 0.99 window_ns /. 1e6);
          ("peak_rss_mb", peak_rss_mb);
          ("blocks_ratio", float after /. float (max 1 before)) ]
      in
      Printf.printf "latency samples %d\n" (List.length window_ns);
      List.map (fun (name, unit) -> (name, unit, List.assoc name e2e)) end_to_end
    | Some ((plain, plain_events, counts0), (tw, traced_events), _) ->
      let n = max 1 (ops tw) in
      let tagged t = List.length (List.filter (fun s -> s.s_tag = t) (samples tw)) in
      let per = function
        | Ops -> float n
        | Hits -> float (max 1 (tagged "hit"))
        | Misses -> float (max 1 (tagged "miss"))
        | Batches -> float (max 1 (List.length tw.units))
      in
      let count name = try List.assoc name counts0 with Not_found -> 0. in
      let busy_ns = busy tw in
      let unattributed = busy_ns -. Spans.total_self_ns () in
      (* Queueing behind batch-mates: request latency minus the
         request's own spans (op id = index in the batch). *)
      let wait_ms =
        match inst.replay with
        | None -> 0.
        | Some _ ->
          let width = match tw.units with u :: _ -> List.length u.samples | [] -> 0 in
          let own = List.fold_left (fun a op -> a +. Spans.op_self_ns op) 0. (List.init width Fun.id) in
          (List.fold_left (fun a s -> a +. s.ns) 0. (samples tw) -. own) /. 1e6 /. float n
      in
      let hits = count "reliability.cache_hits" in
      let derived =
        [ ("sim.events_per_s", float plain_events /. plain.seconds);
          ("reliability.ns_per_event",
           Spans.self_ns "reliability.estimate" /. float (max 1 traced_events));
          ("reliability.cache_hit_ratio",
           hits /. max 1. (hits +. count "reliability.cache_misses"));
          ("service.wait_ms_per_req", wait_ms);
          ("unattributed.ms_per_op", unattributed /. 1e6 /. float n);
          ("trace.overhead", 1. -. (rate tw /. rate plain)) ]
        @ inst.extras ()
      in
      print_string (layer_table ~busy_ns ~n);
      Printf.printf "traced ops %d, trace.overhead %.3f\n" n
        (List.assoc "trace.overhead" derived);
      if unattributed > max_unattributed *. busy_ns then
        gate_fail
          (Printf.sprintf "unattributed time is %.1f%% of traced op time"
             (100. *. unattributed /. busy_ns));
      List.map
        (fun (name, unit, src) ->
          let v =
            match src with
            | Span (span, d) -> Spans.self_ns span /. 1e6 /. per d
            | Count c -> count c /. ops0
            | Derived -> (try List.assoc name derived with Not_found -> 0.)
          in
          (name, unit, if Float.is_finite v then v else 0.))
        per_layer
  in
  let gates = List.length !gate_failures in
  let failed = count_failures all + gates in
  {
    correct = failed = 0;
    attempted = List.length all + gates;
    failed;
    metrics;
    input_digest = inst.input_digest;
    output_digest = hex (String.concat "" (List.map (fun s -> s.out_digest) unit0.samples));
  }

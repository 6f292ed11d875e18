(* Engine-vs-oracle kernel equivalence.

   Sim.Engine (Behavior.Compile closures, dense addressing, timing-wheel
   calendar) claims byte-identical observables to the interpreted oracle
   in sim_oracle.ml.  These properties hold the two against each other
   on random networks × random stimulus × tie orders × edge delays ×
   fault families × seeds, comparing every observable at once: settled
   observations, output traces, final output values, activation and
   packet counts, fault statistics, the clock, and the full rendered
   telemetry report.  An engine restarted after a finished or cut-off
   run, with or without a collector it keeps, is held against a fresh
   start and the oracle.  A deterministic
   sweep over the Table 1 designs covers the workloads of the fault and
   reliability sweeps. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module E = Sim.Engine
module F = Sim.Fault
module C = Eblock.Catalog

let check = Alcotest.check
let value = Testlib.value

(* The engine API both kernels implement.  Each has its own telemetry
   collector — the engine its dense counter block, the oracle the
   Hashtbl collector the engine used to call hooks on — compared through
   their rendered reports. *)
module type KERNEL = sig
  type t
  type collector

  val collector : unit -> collector
  val report : Graph.t -> collector -> string

  val create :
    ?tie_order:E.tie_order -> ?edge_delay:(Graph.edge -> int) ->
    ?faults:F.plan -> ?telemetry:collector -> Graph.t -> t

  val set_sensor : t -> Node_id.t -> bool -> unit
  val set_sensor_at : t -> time:int -> Node_id.t -> bool -> unit
  val settle : ?limit:int -> t -> unit

  val settled_outputs :
    t -> Sim.Stimulus.script ->
    (int * (Node_id.t * Behavior.Ast.value) list) list

  val trace : t -> (int * Node_id.t * Behavior.Ast.value) list
  val output_values : t -> (Node_id.t * Behavior.Ast.value) list
  val activation_count : t -> int
  val packet_count : t -> int
  val fault_stats : t -> F.stats option
  val now : t -> int
end

module Engine_collector = struct
  type collector = Sim.Telemetry.t

  let collector () = Sim.Telemetry.create ()
  let report g c = Obs.Json.to_string (Sim.Telemetry.report_json g c)
  let settled_outputs = Sim.Stimulus.settled_outputs
end

module Compiled : KERNEL = struct
  include E
  include Engine_collector
end

module Oracle = struct
  include Sim_oracle

  type collector = Sim_oracle.Telemetry.t

  let collector () = Sim_oracle.Telemetry.create ()
  let report g c = Obs.Json.to_string (Sim_oracle.Telemetry.report_json g c)
end

module Interpreted : KERNEL = Oracle

(* Everything one simulation run can show: if any divergence between the
   kernels is observable at all, it is observable here.  An exhausted
   event limit is an observable too, context included. *)
let observe (module K : KERNEL) ?tie_order ?edge_delay ?faults
    ?(telemetry = false) g script =
  let collector = if telemetry then Some (K.collector ()) else None in
  let engine =
    K.create ?tie_order ?edge_delay ?faults ?telemetry:collector g
  in
  let obs =
    match K.settled_outputs engine script with
    | obs -> Ok obs
    | exception E.Event_limit_exceeded { clock; queue_depth; last_node } ->
      Error (clock, queue_depth, last_node)
  in
  let report = Option.map (K.report g) collector in
  ( obs,
    K.trace engine,
    K.output_values engine,
    K.activation_count engine,
    K.packet_count engine,
    K.fault_stats engine,
    K.now engine,
    report )

let kernels_agree ?tie_order ?edge_delay ?faults ?telemetry g script =
  observe (module Interpreted) ?tie_order ?edge_delay ?faults ?telemetry g
    script
  = observe (module Compiled) ?tie_order ?edge_delay ?faults ?telemetry g
      script

(* --- generators ---------------------------------------------------------- *)

let tie_of_pick pick seed =
  match pick with
  | 0 -> E.Fifo
  | 1 -> E.Lifo
  | _ -> E.Shuffled seed

let family_of_pick pick =
  match pick with
  | 0 -> None
  | 1 -> Some (Reliability.Family.Drop { rate = 0.15 })
  | 2 ->
    Some
      (Reliability.Family.Chaos
         { drop = 0.05; duplicate = 0.1; corrupt = 0.1; jitter = 2 })
  | _ ->
    Some
      (Reliability.Family.Brownout { rate = 0.4; ticks = [ 30; 90; 150 ] })

let case_gen =
  QCheck.Gen.(
    Testlib.network_gen ~max_inner:12 () >>= fun (inner, seed, g) ->
    int_range 0 2 >>= fun tie ->
    int_range 0 3 >>= fun fam ->
    int_range 0 1_000_000 >|= fun script_seed ->
    (inner, seed, g, tie, fam, script_seed))

let case_arbitrary =
  QCheck.make
    ~print:(fun (inner, seed, _, tie, fam, script_seed) ->
      Printf.sprintf "inner=%d seed=%d tie=%d family=%d script_seed=%d" inner
        seed tie fam script_seed)
    case_gen

let script_of g script_seed =
  Sim.Stimulus.random
    ~rng:(Prng.create script_seed)
    ~sensors:(Graph.sensors g) ~steps:10 ~spacing:25

(* Deterministic non-uniform per-edge latency, exercising the delay
   recomputation on both kernels' schedule paths. *)
let bumpy_delay (e : Graph.edge) =
  1 + ((e.Graph.src.Graph.node + (3 * e.Graph.dst.Graph.port)) mod 3)

let prop name count f =
  QCheck.Test.make ~count ~name case_arbitrary f

(* The compiled kernel, but every run starts from one prepared network:
   a run that wrote into the shared tables would change the next. *)
let started_from net : (module KERNEL) =
  (module struct
    include E
    include Engine_collector

    let create ?tie_order ?edge_delay ?faults ?telemetry _g =
      E.start ?tie_order ?edge_delay ?faults ?telemetry net
  end)

let equivalence_properties =
  [
    prop "clean runs byte-identical across tie orders" 80
      (fun (_, seed, g, tie, _, script_seed) ->
        kernels_agree ~tie_order:(tie_of_pick tie seed) g
          (script_of g script_seed));
    prop "bumpy edge delays byte-identical" 40
      (fun (_, seed, g, tie, _, script_seed) ->
        kernels_agree ~tie_order:(tie_of_pick tie seed)
          ~edge_delay:bumpy_delay g (script_of g script_seed));
    prop "fault families byte-identical (plans, strikes, stats)" 80
      (fun (_, seed, g, tie, fam, script_seed) ->
        let faults =
          Option.map
            (fun f -> Reliability.Family.plan f ~seed:script_seed g)
            (family_of_pick fam)
        in
        kernels_agree ~tie_order:(tie_of_pick tie seed) ?faults g
          (script_of g script_seed));
    prop "telemetry reports byte-identical" 40
      (fun (_, seed, g, tie, fam, script_seed) ->
        let faults =
          Option.map
            (fun f -> Reliability.Family.plan f ~seed:script_seed g)
            (family_of_pick fam)
        in
        kernels_agree ~tie_order:(tie_of_pick tie seed) ?faults
          ~telemetry:true g (script_of g script_seed));
    prop "runs started from one prepared network stay independent" 40
      (fun (_, seed, g, tie, fam, script_seed) ->
        let script = script_of g script_seed in
        let tie_order = tie_of_pick tie seed in
        let faults =
          Option.map
            (fun f -> Reliability.Family.plan f ~seed:script_seed g)
            (family_of_pick fam)
        in
        let shared = started_from (E.prepare g) in
        List.for_all
          (fun (edge_delay, faults, telemetry) ->
            observe (module Interpreted) ~tie_order ?edge_delay ?faults
              ~telemetry g script
            = observe shared ~tie_order ?edge_delay ?faults ~telemetry g
                script)
          [ (None, None, false); (Some bumpy_delay, faults, true);
            (None, faults, false); (None, None, false) ]);
  ]

(* --- restart = fresh start ------------------------------------------------ *)

(* A fault plan of one of the classes the engine resolves at run time,
   from a pick and a seed.  Brownout ticks reach past the calendar's
   wheel window (256 ticks), so a run cut off early leaves resets pending
   in the overflow. *)
let plan_of_pick g pick seed =
  let rng = Prng.create seed in
  let some_of xs = List.filter (fun _ -> Prng.bool rng) xs in
  let inner = Graph.inner_nodes g in
  match pick with
  | 0 -> None
  | 1 -> Some (F.drop_all ~seed 0.2)
  | 2 ->
    Some
      (F.degrade_all ~seed ~drop:0.05 ~duplicate:0.15 ~corrupt:0.1 ~jitter:3
         ())
  | 3 ->
    Some
      { (F.drop_all ~seed 0.05) with
        node_faults =
          List.map
            (fun id ->
              ( id,
                { F.no_node_fault with
                  reset_at =
                    [ 1 + Prng.int rng 60; 100 + Prng.int rng 100;
                      300 + Prng.int rng 400 ];
                } ))
            (some_of inner);
      }
  | 4 ->
    Some
      { F.none with
        seed;
        node_faults =
          List.map
            (fun id ->
              ( id,
                { F.no_node_fault with
                  stuck =
                    [ { F.port = 0; value = Bool (Prng.bool rng);
                        from = Prng.int rng 80 } ];
                } ))
            (some_of inner);
      }
  | _ ->
    Some
      { (F.drop_all ~seed 0.05) with
        edge_overrides =
          List.map
            (fun e ->
              (e, { F.no_edge_fault with dies_at = Some (Prng.int rng 120) }))
            (some_of (Graph.edges g));
      }

let pick_names = [| "none"; "drop"; "chaos"; "brownout"; "stuck-at"; "dead" |]

(* Event limits: the small ones cut a run off with events still
   pending, in the wheel and in the overflow. *)
let limits = [| 3; 12; 40; 100_000 |]

type restart_case = {
  inner : int;
  seed : int;
  g : Graph.t;
  tie : int;
  bumpy : bool;
  pick_a : int;
  pick_b : int;
  same_plan : bool;  (* B is A's plan, seed included *)
  limit_a : int;
  limit_b : int;
  collect : bool;  (* a collector armed at start, kept by the restart *)
  script_seed : int;
}

let restart_arbitrary =
  let gen =
    QCheck.Gen.(
      Testlib.network_gen ~max_inner:12 () >>= fun (inner, seed, g) ->
      int_range 0 2 >>= fun tie ->
      bool >>= fun bumpy ->
      int_range 0 5 >>= fun pick_a ->
      int_range 0 5 >>= fun pick_b ->
      int_range 0 3 >>= fun same ->
      int_range 0 3 >>= fun limit_a ->
      int_range 0 3 >>= fun limit_b ->
      bool >>= fun collect ->
      int_range 0 1_000_000 >|= fun script_seed ->
      {
        inner; seed; g; tie; bumpy; pick_a; pick_b; same_plan = same = 0;
        limit_a = limits.(limit_a); limit_b = limits.(max 1 limit_b);
        collect; script_seed;
      })
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf
        "inner=%d seed=%d tie=%d bumpy=%b A=%s B=%s same=%b limit A=%d B=%d \
         collect=%b script_seed=%d"
        c.inner c.seed c.tie c.bumpy pick_names.(c.pick_a)
        pick_names.(c.pick_b) c.same_plan c.limit_a c.limit_b c.collect
        c.script_seed)

(* Per-link strike and per-node reset counts as a collector saw them —
   the oracle's side of the engine's strike counters. *)
let collector_strikes tel =
  ( List.filter_map
      (fun (e, (l : Sim_oracle.Telemetry.link_stats)) ->
        let k =
          l.drops + l.duplicates + l.corruptions + l.jittered + l.dead_losses
        in
        if k > 0 then Some (e, k) else None)
      (Sim_oracle.Telemetry.links tel),
    List.filter_map
      (fun (id, (n : Sim_oracle.Telemetry.node_stats)) ->
        if n.resets > 0 then Some (id, n.resets) else None)
      (Sim_oracle.Telemetry.nodes tel) )

(* A tolerant stepwise replay, as Degrade's faulty run: settle after
   each step and stop at an exhausted event limit, context recorded. *)
let replay (type a) (module K : KERNEL with type t = a) (engine : a) script
    limit =
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | (step : Sim.Stimulus.step) :: rest ->
      let time = max step.time (K.now engine) in
      K.set_sensor_at engine ~time step.sensor step.value;
      (match K.settle ~limit engine with
       | () -> go (K.output_values engine :: acc) rest
       | exception E.Event_limit_exceeded { clock; queue_depth; last_node } ->
         (List.rev acc, Some (clock, queue_depth, last_node)))
  in
  let observed = go [] script in
  ( observed,
    K.trace engine,
    K.output_values engine,
    K.fault_stats engine,
    K.packet_count engine,
    K.activation_count engine,
    K.now engine )

(* [run] under a metrics scope, keeping the sim.* counter deltas. *)
let sim_deltas run =
  let result, entries = Obs.Metrics.with_scope run in
  ( result,
    List.filter_map
      (fun (e : Obs.Metrics.entry) ->
        if String.starts_with ~prefix:"sim." e.name then Some (e.name, e.value)
        else None)
      entries )

let compiled_k : (module KERNEL with type t = E.t) =
  (module struct
    include E
    include Engine_collector
  end)

let oracle_k : (module KERNEL with type t = Sim_oracle.t) = (module Oracle)

let restart_matches_fresh_start =
  QCheck.Test.make ~count:250
    ~name:"restart = fresh start = oracle, after finished and cut-off runs"
    restart_arbitrary (fun c ->
      let g = c.g in
      let tie_order = tie_of_pick c.tie c.seed in
      let edge_delay = if c.bumpy then Some bumpy_delay else None in
      let faults_a = plan_of_pick g c.pick_a c.script_seed in
      let faults_b =
        if c.same_plan then faults_a
        else plan_of_pick g c.pick_b (c.script_seed + 1)
      in
      (* run A's script is scheduled in one go, reaching past the wheel
         window; run B's is replayed step by step *)
      let script_a =
        Sim.Stimulus.random ~rng:(Prng.create c.script_seed)
          ~sensors:(Graph.sensors g) ~steps:10 ~spacing:60
      in
      let script_b = script_of g (c.script_seed + 2) in
      let net = E.prepare g in
      let collector () =
        if c.collect then Some (Sim.Telemetry.create ()) else None
      in
      let telemetry = collector () in
      let engine =
        E.start ~tie_order ?edge_delay ?faults:faults_a ?telemetry net
      in
      Sim.Stimulus.apply engine script_a;
      (try E.settle ~limit:c.limit_a engine
       with E.Event_limit_exceeded _ -> ());
      let compiled engine telemetry =
        let observed = replay compiled_k engine script_b c.limit_b in
        ( observed,
          (E.link_strikes engine, E.node_resets engine),
          Option.map (Engine_collector.report g) telemetry )
      in
      let restarted =
        sim_deltas (fun () ->
            E.restart ?faults:faults_b engine;
            compiled engine telemetry)
      in
      let fresh =
        sim_deltas (fun () ->
            let telemetry = collector () in
            compiled
              (E.start ~tie_order ?edge_delay ?faults:faults_b ?telemetry net)
              telemetry)
      in
      (* the oracle has no strike counters: a collector counts for it *)
      let oracle =
        sim_deltas (fun () ->
            let tel = Oracle.collector () in
            let engine =
              Sim_oracle.create ~tie_order ?edge_delay ?faults:faults_b
                ~telemetry:tel g
            in
            let observed = replay oracle_k engine script_b c.limit_b in
            ( observed,
              collector_strikes tel,
              if c.collect then Some (Oracle.report g tel) else None ))
      in
      restarted = fresh && fresh = oracle)

(* The per-(node, port) fanout index is defined as a filter of the full
   fanout list; hold the two against each other on random graphs,
   including one out-of-range probe per node. *)
let fanout_index_agrees =
  QCheck.Test.make ~count:200 ~name:"Graph.fanout_on = filtered fanout"
    (Testlib.network_arbitrary ())
    (fun (_, _, g) ->
      List.for_all
        (fun id ->
          let d = Graph.descriptor g id in
          let full = Graph.fanout g id in
          let ports = d.Eblock.Descriptor.n_outputs in
          Graph.fanout_on g id ports = []
          && List.for_all
               (fun port ->
                 let reference =
                   List.filter
                     (fun e -> e.Graph.src.Graph.port = port)
                     full
                 in
                 let indexed = Graph.fanout_on g id port in
                 let iterated = ref [] in
                 Graph.iter_fanout_on g id port (fun e ->
                     iterated := e :: !iterated);
                 indexed = reference && List.rev !iterated = reference)
               (List.init ports Fun.id))
        (Graph.node_ids g))

(* --- the Table 1 sweep ---------------------------------------------------- *)

(* The sim-heavy CLI sweeps' workloads, deterministically: every Table 1
   design, flat and after synthesis, driven by the fault sweep's script
   (seed 11, 30 flips, spacing 25) with telemetry armed — clean, under
   the fault sweep's three drop rates, and under three seeds of the
   reliability estimator's default family. *)
let test_table1_sweep_agrees () =
  let plans =
    [ ("clean", fun _ -> None) ]
    @ List.map
        (fun rate ->
          (Printf.sprintf "drop %.2f" rate, fun _ -> Some (F.drop_all rate)))
        [ 0.02; 0.05; 0.10 ]
    @ List.map
        (fun seed ->
          ( Printf.sprintf "default family, seed %d" seed,
            fun g ->
              Some
                (Reliability.Family.plan
                   Reliability.Estimator.default_config.family ~seed g) ))
        [ 1; 2; 3 ]
  in
  List.iter
    (fun (d : Designs.Design.t) ->
      let flat = d.Designs.Design.network in
      let synthesized =
        (fst (Codegen.Replace.synthesize flat)).Codegen.Replace.network
      in
      let script =
        Sim.Stimulus.random ~rng:(Prng.create 11)
          ~sensors:(Graph.sensors flat) ~steps:30 ~spacing:25
      in
      List.iter
        (fun (net, g) ->
          List.iter
            (fun (label, plan) ->
              if not (kernels_agree ?faults:(plan g) ~telemetry:true g script)
              then
                Alcotest.failf "%s (%s), %s: kernels disagree"
                  d.Designs.Design.name net label)
            plans)
        [ ("flat", flat); ("synthesized", synthesized) ])
    Designs.Library.table1

(* --- pinned regressions --------------------------------------------------- *)

(* Re-arming a pending timer must supersede the earlier expiry on both
   kernels: the prolong block re-triggers on every rising input, so
   flips faster than its window must coalesce into one fall.  The trace
   is pinned so a tie-handling or generation-tracking regression in
   either kernel shows up as a concrete diff, not just a cross-kernel
   mismatch. *)
let test_timer_supersession_pinned () =
  let run (module K : KERNEL) =
    let g, sensor, _, led = Testlib.chain [ C.prolong ~ticks:10 ] in
    let engine = K.create g in
    List.iter
      (fun (time, v) -> K.set_sensor_at engine ~time sensor v)
      [ (1, true); (3, false); (5, true); (7, false); (40, true);
        (42, false) ];
    K.settle engine;
    (K.trace engine, (led : Node_id.t))
  in
  let interp, led = run (module Interpreted) in
  let compiled, _ = run (module Compiled) in
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int value))
    "kernels agree" interp compiled;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int value))
    "pinned supersession trace"
    [ (3, led, Bool true); (19, led, Bool false); (42, led, Bool true);
      (54, led, Bool false) ]
    compiled

(* A brownout mid-run wipes a toggle's state on both kernels: same
   trace, same reset accounting, pinned. *)
let test_brownout_reset_pinned () =
  let run (module K : KERNEL) =
    let g, sensor, inner, led = Testlib.chain [ C.toggle ] in
    let toggle = List.hd inner in
    let faults =
      { F.none with
        node_faults =
          [ (toggle, { F.no_node_fault with reset_at = [ 25 ] }) ];
      }
    in
    let engine = K.create ~faults g in
    List.iter
      (fun (time, v) -> K.set_sensor_at engine ~time sensor v)
      [ (1, true); (10, false); (30, true); (40, false) ];
    K.settle engine;
    ( K.trace engine,
      (match K.fault_stats engine with Some s -> s.F.resets | None -> -1),
      (led : Node_id.t) )
  in
  let i_trace, i_resets, led = run (module Interpreted) in
  let c_trace, c_resets, _ = run (module Compiled) in
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int value))
    "kernels agree" i_trace c_trace;
  check Alcotest.int "one reset on both" i_resets c_resets;
  check Alcotest.int "pinned reset count" 1 c_resets;
  check
    (Alcotest.list (Alcotest.triple Alcotest.int Alcotest.int value))
    "pinned brownout trace"
    [ (3, led, Bool true); (26, led, Bool false); (32, led, Bool true) ]
    c_trace

(* Error surfaces must not depend on the kernel either. *)
let test_event_limit_agrees () =
  let g, a = Graph.add Graph.empty C.button in
  let g, blink = Graph.add g (C.blinker ~period:4) in
  let g, led = Graph.add g C.led in
  let g = Graph.connect g ~src:(a, 0) ~dst:(blink, 0) in
  let g = Graph.connect g ~src:(blink, 0) ~dst:(led, 0) in
  let probe (module K : KERNEL) =
    let engine = K.create g in
    K.set_sensor engine a true;
    match K.settle ~limit:200 engine with
    | () -> Alcotest.fail "oscillator settled?"
    | exception E.Event_limit_exceeded { clock; queue_depth; last_node } ->
      (clock, queue_depth, last_node)
  in
  let i = probe (module Interpreted) and c = probe (module Compiled) in
  check
    (Alcotest.triple Alcotest.int Alcotest.int (Alcotest.option Alcotest.int))
    "limit context agrees" i c

let () =
  Alcotest.run "kernel"
    [
      ("equivalence", Testlib.qtests equivalence_properties);
      ("restart", Testlib.qtests [ restart_matches_fresh_start ]);
      ("fanout index", Testlib.qtests [ fanout_index_agrees ]);
      ( "table 1",
        [
          Alcotest.test_case "flat and synthesized, faults + telemetry"
            `Quick test_table1_sweep_agrees;
        ] );
      ( "pinned",
        [
          Alcotest.test_case "timer supersession" `Quick
            test_timer_supersession_pinned;
          Alcotest.test_case "brownout reset" `Quick
            test_brownout_reset_pinned;
          Alcotest.test_case "event limit context" `Quick
            test_event_limit_agrees;
        ] );
    ]

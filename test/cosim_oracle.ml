(* Tier-3 co-simulation as it ran before Codegen.Cosim shared the flat
   side across a solution's partitions and Sim.Equiv memoized runs in
   observers, kept verbatim as a differential oracle: every sensitivity
   test and every check simulates each of its engine configurations
   afresh, and every candidate recomputes the flat network's skip
   verdicts.  It bumps the same codegen.cosim.* metrics (registration is
   by name), so test_verify.ml can hold Codegen.Cosim's per-partition
   outcomes, shrunk counterexamples included, against it. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(* --- Sim.Equiv ------------------------------------------------------- *)

let same_ids a b =
  List.equal Node_id.equal a b

(* A deterministic pseudo-random latency in 1..4 per connection.  Keyed
   on the edge's endpoints, so the "same" perturbation applies to any
   network — including a synthesised rewrite whose edge set differs. *)
let jittered_delay salt (e : Graph.edge) =
  1 + (Hashtbl.hash (salt, e.Graph.src, e.Graph.dst) land 3)

let observe ?(perturbation = Sim.Equiv.baseline) g script =
  let edge_delay =
    Option.map (fun salt -> jittered_delay salt) perturbation.delay_salt
  in
  let engine =
    Sim.Engine.create ~tie_order:perturbation.tie_order ?edge_delay g
  in
  Sim.Stimulus.settled_outputs engine script

let check ?perturbation ~reference ~candidate script =
  if not (same_ids (Graph.sensors reference) (Graph.sensors candidate)) then
    invalid_arg "Equiv.check: sensor sets differ";
  if not
       (same_ids
          (Graph.primary_outputs reference)
          (Graph.primary_outputs candidate))
  then invalid_arg "Equiv.check: primary output sets differ";
  let ref_obs = observe ?perturbation reference script in
  let cand_obs = observe ?perturbation candidate script in
  let compare_point acc (time, ref_outputs) (_, cand_outputs) =
    match acc with
    | Error _ -> acc
    | Ok () ->
      let rec compare_outputs ref_outputs cand_outputs =
        match ref_outputs, cand_outputs with
        | [], [] -> Ok ()
        | (id, rv) :: ref_rest, (_, cv) :: cand_rest ->
          if Behavior.Ast.equal_value rv cv
          then compare_outputs ref_rest cand_rest
          else
            Error { Sim.Equiv.at_time = time; output = id; reference = rv;
                    candidate = cv }
        | [], _ :: _ | _ :: _, [] ->
          invalid_arg "Equiv.check: output arity mismatch"
      in
      compare_outputs ref_outputs cand_outputs
  in
  List.fold_left2 compare_point (Ok ()) ref_obs cand_obs

let race_sensitive g script =
  let observe tie_order =
    Sim.Stimulus.settled_outputs (Sim.Engine.create ~tie_order g) script
  in
  let reference = observe Sim.Engine.Fifo in
  List.exists
    (fun order -> observe order <> reference)
    [ Sim.Engine.Lifo; Sim.Engine.Shuffled 1; Sim.Engine.Shuffled 2;
      Sim.Engine.Shuffled 3 ]

let sensitive_under g perturbs script =
  let reference = observe g script in
  List.exists (fun p -> observe ~perturbation:p g script <> reference) perturbs

let timing_sensitive g script =
  let observe ?tie_order ?edge_delay () =
    Sim.Stimulus.settled_outputs
      (Sim.Engine.create ?tie_order ?edge_delay g) script
  in
  let reference = observe () in
  (* Slowing any single connection enough to outlast every alternative
     path deterministically flips each two-path hazard ordering at least
     once; the jittered assignments additionally sample combined
     perturbations. *)
  let slow = Graph.node_count g + 2 in
  let slow_one target (e : Graph.edge) = if e = target then slow else 1 in
  List.exists
    (fun target -> observe ~edge_delay:(slow_one target) () <> reference)
    (Graph.edges g)
  || List.exists
       (fun salt -> observe ~edge_delay:(jittered_delay salt) () <> reference)
       [ 1; 2; 3; 4 ]
  || race_sensitive g script

(* --- Codegen.Cosim ---------------------------------------------------- *)

let m_scripts =
  Obs.Metrics.counter "codegen.cosim.scripts"
    ~doc:"differential co-simulation scripts generated"
let m_skipped =
  Obs.Metrics.counter "codegen.cosim.scripts_skipped"
    ~doc:"scripts discarded because the flat design was timing-sensitive"
let m_race_limited =
  Obs.Metrics.counter "codegen.cosim.race_limited_scripts"
    ~doc:"scripts checked under the baseline engine only because the \
          rewrite surfaced a timing race latent in the flat design"
let m_checks =
  Obs.Metrics.counter "codegen.cosim.checks"
    ~doc:"per-perturbation script comparisons that agreed"
let m_shrink_rechecks =
  Obs.Metrics.counter "codegen.cosim.shrink_rechecks"
    ~doc:"candidate scripts re-simulated while shrinking a counterexample"

let script_seed (config : Codegen.Cosim.config) i =
  (* one independent stream per script, stable under config.scripts *)
  config.seed + (7919 * i)

let run ?(config = Codegen.Cosim.default_config) ~reference candidate =
  Obs.Journal.with_span "codegen.cosim" @@ fun () ->
  let sensors = Graph.sensors reference in
  if sensors = [] then
    Codegen.Cosim.Inconclusive "design has no sensors to drive"
  else begin
    let perturbs = Sim.Equiv.perturbations config.perturbations in
    let engines = Sim.Equiv.baseline :: perturbs in
    let exception Diverged_on of Codegen.Cosim.failure in
    try
      let usable = ref 0 and checks = ref 0 in
      for i = 0 to config.Codegen.Cosim.scripts - 1 do
        let seed = script_seed config i in
        let script =
          Sim.Stimulus.random ~rng:(Prng.create seed) ~sensors
            ~steps:config.steps ~spacing:config.spacing
        in
        Obs.Metrics.incr m_scripts;
        (* A script the flat design is timing-sensitive on proves nothing
           about the merge: the reference behaviour itself is undefined.
           [sensitive_under] keeps the skip-set aligned with the engine
           pool ([timing_sensitive] samples its own fixed perturbations,
           which need not include every pool entry, e.g. lifo+jitter). *)
        if
          timing_sensitive reference script
          || sensitive_under reference perturbs script
        then Obs.Metrics.incr m_skipped
        else begin
          incr usable;
          (* Blame assignment before the differential comparison: when the
             candidate's own settled outputs vary across the pool while
             the flat design's do not, the rewrite's different event
             sequence is resolving a race (typically a timer expiry tied
             with a packet delivery) that the flat schedule happened to
             mask.  The design leaves that ordering undefined, so a
             perturbed comparison would report noise, not a merge bug —
             check such scripts under the baseline engine only.  Nothing
             is lost: with a pool-insensitive reference and an agreeing
             baseline, any perturbed divergence implies exactly this
             candidate-side sensitivity. *)
          let engines =
            if sensitive_under candidate perturbs script then begin
              Obs.Metrics.incr m_race_limited;
              [ Sim.Equiv.baseline ]
            end
            else engines
          in
          List.iter
            (fun perturbation ->
              match check ~perturbation ~reference ~candidate script with
              | Ok () ->
                incr checks;
                Obs.Metrics.incr m_checks
              | Error _ ->
                let still_fails s =
                  Obs.Metrics.incr m_shrink_rechecks;
                  s <> []
                  && Result.is_error
                       (check ~perturbation ~reference ~candidate s)
                in
                let script = Codegen.Cosim.shrink ~seed ~still_fails script in
                let mismatch =
                  match
                    check ~perturbation ~reference ~candidate script
                  with
                  | Error m -> m
                  | Ok () -> assert false  (* shrink keeps scripts failing *)
                in
                raise
                  (Diverged_on
                     {
                       Codegen.Cosim.seed;
                       perturbation;
                       script;
                       original_steps = config.steps;
                       mismatch;
                     }))
            engines
        end
      done;
      if !usable = 0 then
        Codegen.Cosim.Inconclusive
          "every stimulus script was timing-sensitive on the flat design"
      else Codegen.Cosim.Agreed { scripts = !usable; checks = !checks }
    with Diverged_on f -> Codegen.Cosim.Diverged f
  end

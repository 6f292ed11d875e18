module Graph = Netlist.Graph

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

type config = {
  scripts : int;
  steps : int;
  spacing : int;
  seed : int;
  perturbations : int;
}

let default_config =
  { scripts = 3; steps = 40; spacing = 20; seed = 2005; perturbations = 4 }

type failure = {
  seed : int;
  perturbation : Sim.Equiv.perturbation;
  script : Sim.Stimulus.script;
  original_steps : int;
  mismatch : Sim.Equiv.mismatch;
}

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>script (seed %d, engine %s, %d step(s), shrunk from %d):@,\
     %a@,%a@]"
    f.seed f.perturbation.Sim.Equiv.p_label
    (List.length f.script) f.original_steps
    Sim.Stimulus.pp f.script Sim.Equiv.pp_mismatch f.mismatch

type outcome =
  | Agreed of { scripts : int; checks : int }
  | Diverged of failure
  | Inconclusive of string

(* --- shrinking ------------------------------------------------------- *)

(* [without start len xs] — xs minus the slice [start, start+len). *)
let without start len xs =
  List.filteri (fun i _ -> i < start || i >= start + len) xs

let drop_pass ~still_fails script =
  (* delta-debugging flavour: try to drop chunks, halving the chunk size;
     restart the position scan on the (shorter) survivor after a hit *)
  let rec at_size size script =
    if size < 1 then script
    else begin
      let rec scan start script =
        if start >= List.length script then script
        else begin
          let candidate = without start size script in
          if candidate <> [] && still_fails candidate then scan start candidate
          else scan (start + size) script
        end
      in
      at_size (size / 2) (scan 0 script)
    end
  in
  at_size (List.length script / 2) script

let lower_pass ~still_fails script =
  (* pull each step's time down to just after its predecessor when the
     tighter script still fails; scripts stay time-sorted by construction *)
  let rec go prev_time acc = function
    | [] -> List.rev acc
    | (step : Sim.Stimulus.step) :: rest ->
      let step =
        if step.Sim.Stimulus.time > prev_time + 1 then begin
          let tightened = { step with Sim.Stimulus.time = prev_time + 1 } in
          let candidate = List.rev_append acc (tightened :: rest) in
          if still_fails candidate then tightened else step
        end
        else step
      in
      go step.Sim.Stimulus.time (step :: acc) rest
  in
  go 0 [] script

let shrink ?seed ~still_fails script =
  let journal = Obs.Journal.enabled () in
  let emit_round round script' =
    match seed with
    | Some seed when journal ->
      Obs.Journal.emit
        (Obs.Journal.Cosim_shrink
           { seed; round; steps = List.length script' })
    | Some _ | None -> ()
  in
  let rec fixpoint round script =
    if round > 8 then script
    else begin
      let script' = lower_pass ~still_fails (drop_pass ~still_fails script) in
      emit_round round script';
      if script' = script then script else fixpoint (round + 1) script'
    end
  in
  fixpoint 1 script

(* --- the differential loop ------------------------------------------- *)

let script_seed (config : config) i =
  (* one independent stream per script, stable under config.scripts *)
  config.seed + (7919 * i)

(* The flat side of one script, shared by every candidate checked
   against the same reference: the script, whether the flat design is
   timing-sensitive on it, and the flat observer holding its baseline
   and pool runs. *)
type flat_script = {
  seed : int;
  script : Sim.Stimulus.script;
  flat : Sim.Equiv.Observer.t;
  skip : bool;
}

type reference = {
  config : config;
  sensors : Netlist.Node_id.t list;
  net : Sim.Engine.prepared Lazy.t;
  perturbs : Sim.Equiv.perturbation list;
  flat_scripts : flat_script Lazy.t array;
}

let reference ?(config = default_config) g =
  let net = lazy (Sim.Engine.prepare g) in
  let sensors = Graph.sensors g in
  let perturbs = Sim.Equiv.perturbations config.perturbations in
  let flat_script i =
    lazy
      (let seed = script_seed config i in
       let script =
         Sim.Stimulus.random ~rng:(Prng.create seed) ~sensors
           ~steps:config.steps ~spacing:config.spacing
       in
       let flat = Sim.Equiv.Observer.create (Lazy.force net) script in
       (* A script the flat design is timing-sensitive on proves nothing
          about the merge: the reference behaviour itself is undefined.
          [sensitive_under] keeps the skip-set aligned with the engine
          pool ([timing_sensitive] samples its own fixed perturbations,
          which need not include every pool entry, e.g. lifo+jitter). *)
       let skip =
         Sim.Equiv.Observer.timing_sensitive flat
         || Sim.Equiv.Observer.sensitive_under flat perturbs
       in
       { seed; script; flat; skip })
  in
  {
    config;
    sensors;
    net;
    perturbs;
    flat_scripts = Array.init (max 0 config.scripts) flat_script;
  }

let run_against ~reference:r candidate =
  Obs.Journal.with_span "codegen.cosim" @@ fun () ->
  if r.sensors = [] then Inconclusive "design has no sensors to drive"
  else begin
    let config = r.config and perturbs = r.perturbs in
    let engines = Sim.Equiv.baseline :: perturbs in
    let cand_net = lazy (Sim.Engine.prepare candidate) in
    (* a shrinker probe is a new script: observe both sides afresh *)
    let check_fresh perturbation script =
      Sim.Equiv.Observer.check ~perturbation
        ~reference:(Sim.Equiv.Observer.create (Lazy.force r.net) script)
        ~candidate:(Sim.Equiv.Observer.create (Lazy.force cand_net) script)
        ()
    in
    let exception Diverged_on of failure in
    try
      let usable = ref 0 and checks = ref 0 in
      for i = 0 to Array.length r.flat_scripts - 1 do
        Obs.Metrics.incr m_scripts;
        let { seed; script; flat; skip } = Lazy.force r.flat_scripts.(i) in
        if skip then Obs.Metrics.incr m_skipped
        else begin
          incr usable;
          let cand = Sim.Equiv.Observer.create (Lazy.force cand_net) script in
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
            if Sim.Equiv.Observer.sensitive_under cand perturbs then begin
              Obs.Metrics.incr m_race_limited;
              [ Sim.Equiv.baseline ]
            end
            else engines
          in
          List.iter
            (fun perturbation ->
              match
                Sim.Equiv.Observer.check ~perturbation ~reference:flat
                  ~candidate:cand ()
              with
              | Ok () ->
                incr checks;
                Obs.Metrics.incr m_checks
              | Error _ ->
                let still_fails s =
                  Obs.Metrics.incr m_shrink_rechecks;
                  s <> [] && Result.is_error (check_fresh perturbation s)
                in
                let script = shrink ~seed ~still_fails script in
                let mismatch =
                  match check_fresh perturbation script with
                  | Error m -> m
                  | Ok () -> assert false  (* shrink keeps scripts failing *)
                in
                raise
                  (Diverged_on
                     {
                       seed;
                       perturbation;
                       script;
                       original_steps = config.steps;
                       mismatch;
                     }))
            engines
        end
      done;
      if !usable = 0 then
        Inconclusive
          "every stimulus script was timing-sensitive on the flat design"
      else Agreed { scripts = !usable; checks = !checks }
    with Diverged_on f -> Diverged f
  end

let run ?config ~reference:g candidate =
  run_against ~reference:(reference ?config g) candidate

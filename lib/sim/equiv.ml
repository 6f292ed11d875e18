module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type mismatch = {
  at_time : int;
  output : Node_id.t;
  reference : Behavior.Ast.value;
  candidate : Behavior.Ast.value;
}

let pp_mismatch ppf { at_time; output; reference; candidate } =
  Format.fprintf ppf
    "at time %d, output %d: reference shows %a but candidate shows %a"
    at_time output Behavior.Ast.pp_value reference Behavior.Ast.pp_value
    candidate

let same_ids a b =
  List.equal Node_id.equal a b

(* A deterministic pseudo-random latency in 1..4 per connection.  Keyed
   on the edge's endpoints, so the "same" perturbation applies to any
   network — including a synthesised rewrite whose edge set differs. *)
let jittered_delay salt (e : Graph.edge) =
  1 + (Hashtbl.hash (salt, e.Graph.src, e.Graph.dst) land 3)

type perturbation = {
  p_label : string;
  tie_order : Engine.tie_order;
  delay_salt : int option;
}

let baseline = { p_label = "fifo"; tie_order = Engine.Fifo; delay_salt = None }

let pool =
  [ { p_label = "lifo"; tie_order = Engine.Lifo; delay_salt = None };
    { p_label = "shuffle1"; tie_order = Engine.Shuffled 1; delay_salt = None };
    { p_label = "jitter1"; tie_order = Engine.Fifo; delay_salt = Some 1 };
    { p_label = "shuffle2"; tie_order = Engine.Shuffled 2; delay_salt = None };
    { p_label = "jitter2"; tie_order = Engine.Fifo; delay_salt = Some 2 };
    { p_label = "shuffle3"; tie_order = Engine.Shuffled 3; delay_salt = None };
    { p_label = "jitter3"; tie_order = Engine.Fifo; delay_salt = Some 3 };
    { p_label = "lifo-jitter4"; tie_order = Engine.Lifo; delay_salt = Some 4 };
  ]

let perturbations n = List.filteri (fun i _ -> i < n) pool

(* --- engine configurations ------------------------------------------- *)

(* How one run assigns packet latencies, as data, so that two requests
   for the same run compare equal: unit wire delays, a salted jitter
   ({!jittered_delay}), or every connection at unit delay but one slowed
   enough to outlast every alternative path. *)
type delays =
  | Unit
  | Jitter of int
  | Slow of Graph.edge

type run = {
  order : Engine.tie_order;
  delays : delays;
}

let run_of_perturbation p =
  {
    order = p.tie_order;
    delays = (match p.delay_salt with None -> Unit | Some s -> Jitter s);
  }

let baseline_run = run_of_perturbation baseline

(* The runs whose observations an observer keeps: the baseline and the
   perturbation pool, which differential comparison re-reads per
   candidate.  Everything else (per-edge slow-downs, the fifo+jitter4
   sensitivity sample) is compared once and dropped. *)
let kept_runs = baseline_run :: List.map run_of_perturbation pool

type observations = (int * (Node_id.t * Behavior.Ast.value) list) list

let simulate net script { order; delays } =
  let edge_delay =
    match delays with
    | Unit -> None
    | Jitter salt -> Some (jittered_delay salt)
    | Slow target ->
      let slow = Graph.node_count (Engine.prepared_graph net) + 2 in
      Some (fun e -> if e = target then slow else 1)
  in
  Stimulus.settled_outputs
    (Engine.start ~tie_order:order ?edge_delay net)
    script

let require_same_interface reference candidate =
  if not (same_ids (Graph.sensors reference) (Graph.sensors candidate)) then
    invalid_arg "Equiv.check: sensor sets differ";
  if not
       (same_ids
          (Graph.primary_outputs reference)
          (Graph.primary_outputs candidate))
  then invalid_arg "Equiv.check: primary output sets differ"

let compare_observations ref_obs cand_obs =
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
            Error { at_time = time; output = id; reference = rv;
                    candidate = cv }
        | [], _ :: _ | _ :: _, [] ->
          invalid_arg "Equiv.check: output arity mismatch"
      in
      compare_outputs ref_outputs cand_outputs
  in
  List.fold_left2 compare_point (Ok ()) ref_obs cand_obs

(* --- observers ------------------------------------------------------- *)

module Observer = struct
  type t = {
    net : Engine.prepared;
    script : Stimulus.script;
    mutable kept : (run * observations) list;
    mutable timing : bool option;  (* the [timing_sensitive] verdict *)
  }

  let create net script = { net; script; kept = []; timing = None }

  let graph o = Engine.prepared_graph o.net

  let same a b = a == b || a = b

  let observations o run =
    match List.assoc_opt run o.kept with
    | Some obs -> obs
    | None ->
      let obs = simulate o.net o.script run in
      if not (List.mem run kept_runs) then obs
      else begin
        (* On a timing-insensitive network every kept run settles
           exactly as the baseline does: keep the baseline's list, so
           an observer holds one observation per distinct outcome. *)
        let obs =
          match List.assoc_opt baseline_run o.kept with
          | Some base when same obs base -> base
          | Some _ | None -> obs
        in
        o.kept <- (run, obs) :: o.kept;
        obs
      end

  (* The baseline is always observed first, as every sensitivity test
     compares against it. *)
  let differs o runs =
    let base = observations o baseline_run in
    List.exists (fun run -> not (same (observations o run) base)) runs

  let observed o p = observations o (run_of_perturbation p)

  let sensitive_under o perturbs =
    differs o (List.map run_of_perturbation perturbs)

  let race_orders =
    List.map
      (fun order -> { order; delays = Unit })
      [ Engine.Lifo; Engine.Shuffled 1; Engine.Shuffled 2; Engine.Shuffled 3 ]

  let race_sensitive o = differs o race_orders

  let timing_sensitive o =
    match o.timing with
    | Some verdict -> verdict
    | None ->
      (* Slowing any single connection enough to outlast every
         alternative path deterministically flips each two-path hazard
         ordering at least once; the jittered assignments additionally
         sample combined perturbations. *)
      let fifo delays = { order = Engine.Fifo; delays } in
      let verdict =
        differs o
          (List.map (fun e -> fifo (Slow e)) (Graph.edges (graph o)))
        || differs o (List.map (fun salt -> fifo (Jitter salt)) [ 1; 2; 3; 4 ])
        || race_sensitive o
      in
      o.timing <- Some verdict;
      verdict

  let check ?(perturbation = baseline) ~reference ~candidate () =
    if reference.script != candidate.script
       && reference.script <> candidate.script
    then invalid_arg "Equiv.Observer.check: observers hold different scripts";
    require_same_interface (graph reference) (graph candidate);
    let ref_obs = observed reference perturbation in
    compare_observations ref_obs (observed candidate perturbation)
end

(* --- one-shot functions over a graph --------------------------------- *)

let of_graph g script = Observer.create (Engine.prepare g) script

let observe ?(perturbation = baseline) g script =
  simulate (Engine.prepare g) script (run_of_perturbation perturbation)

let check ?perturbation ~reference ~candidate script =
  require_same_interface reference candidate;
  let ref_obs = observe ?perturbation reference script in
  compare_observations ref_obs (observe ?perturbation candidate script)

let random_script g ~seed ~steps =
  let rng = Prng.create seed in
  Stimulus.random ~rng ~sensors:(Graph.sensors g) ~steps ~spacing:20

let check_random ~reference ~candidate ~seed ~steps =
  check ~reference ~candidate (random_script reference ~seed ~steps)

let race_sensitive g script = Observer.race_sensitive (of_graph g script)

let race_sensitive_random g ~seed ~steps =
  race_sensitive g (random_script g ~seed ~steps)

let sensitive_under g perturbs script =
  Observer.sensitive_under (of_graph g script) perturbs

let timing_sensitive g script = Observer.timing_sensitive (of_graph g script)

let timing_sensitive_random g ~seed ~steps =
  timing_sensitive g (random_script g ~seed ~steps)

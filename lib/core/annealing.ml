module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

let m_runs = Obs.Metrics.counter "core.annealing.runs" ~doc:"annealings performed"
let m_proposed =
  Obs.Metrics.counter "core.annealing.moves_proposed" ~doc:"moves proposed"
let m_accepted =
  Obs.Metrics.counter "core.annealing.moves_accepted" ~doc:"moves accepted"
let m_steps =
  Obs.Metrics.counter "core.annealing.temperature_steps"
    ~doc:"cooling-schedule steps taken"
let g_final_temperature =
  Obs.Metrics.gauge "core.annealing.final_temperature"
    ~doc:"temperature at the end of the last run"

type config = {
  shapes : Shape.t list;
  partition_config : Partition.config;
  iterations : int;
  initial_temperature : float;
  cooling : float;
  seed : int;
}

let default_config = {
  shapes = [ Shape.default ];
  partition_config = Partition.default_config;
  iterations = 20_000;
  initial_temperature = 2.0;
  cooling = 0.9995;
  seed = 1;
}

type result = {
  solution : Solution.t;
  moves_accepted : int;
  moves_proposed : int;
}

(* Re-host a member set on the cheapest fitting shape, if any; full
   validity is then checked with Partition.check. *)
let partition_of ~config d members =
  let inputs_used, outputs_used =
    Partition.pins_used ~config:config.partition_config d members
  in
  match Shape.cheapest_fitting config.shapes ~inputs_used ~outputs_used with
  | None -> None
  | Some shape ->
    let p = Partition.make ~members ~shape in
    if Partition.is_valid ~config:config.partition_config d p then Some p
    else None

(* energy: the paper's objective, with cost as a continuous tie-break so
   downhill moves are visible to the annealer *)
let energy g solution =
  float_of_int (Solution.total_inner_after g solution)
  +. (0.001 *. Solution.total_cost_after g solution)

type move =
  | Grow       (* add an uncovered neighbour to a partition *)
  | Shrink     (* drop a member from a partition *)
  | Seed_pair  (* form a new partition from two uncovered blocks *)
  | Dissolve   (* return a whole partition to pre-defined blocks *)
  | Merge      (* fuse two partitions *)

let pick_move rng =
  match Prng.int rng 10 with
  | 0 | 1 | 2 -> Grow
  | 3 -> Shrink
  | 4 | 5 | 6 -> Seed_pair
  | 7 -> Dissolve
  | _ -> Merge

let move_label = function
  | Grow -> "grow"
  | Shrink -> "shrink"
  | Seed_pair -> "seed_pair"
  | Dissolve -> "dissolve"
  | Merge -> "merge"

(* uncovered eligible blocks, as a list *)
let uncovered_of g partitions =
  let covered =
    List.fold_left
      (fun acc p -> Node_id.Set.union acc p.Partition.members)
      Node_id.Set.empty partitions
  in
  List.filter
    (fun id -> not (Node_id.Set.mem id covered))
    (Graph.partitionable_nodes g)

let neighbours g members =
  Node_id.Set.fold
    (fun id acc -> Graph.preds g id @ Graph.succs g id @ acc)
    members []
  |> List.sort_uniq Node_id.compare
  |> List.filter (fun id -> not (Node_id.Set.mem id members))

let replace_nth list index replacement =
  List.mapi (fun i x -> if i = index then replacement else x) list

let remove_nth list index = List.filteri (fun i _ -> i <> index) list

(* Propose a new partition list ([None] when the picked move has no
   valid instantiation at this state), returning the move alongside so
   the journal can label the decision. *)
let propose ~config d rng partitions =
  let g = Netlist.Dense.graph d in
  let uncovered = uncovered_of g partitions in
  let n = List.length partitions in
  let move = pick_move rng in
  let outcome =
  match move with
  | Grow when n > 0 ->
    let index = Prng.int rng n in
    let p = List.nth partitions index in
    let candidates =
      List.filter (fun id -> List.mem id uncovered)
        (neighbours g p.Partition.members)
    in
    if candidates = [] then None
    else begin
      let extra = Prng.pick rng candidates in
      match
        partition_of ~config d (Node_id.Set.add extra p.Partition.members)
      with
      | Some p' -> Some (replace_nth partitions index p')
      | None -> None
    end
  | Shrink when n > 0 ->
    let index = Prng.int rng n in
    let p = List.nth partitions index in
    let victim = Prng.pick rng (Node_id.Set.elements p.Partition.members) in
    let remaining = Node_id.Set.remove victim p.Partition.members in
    if Node_id.Set.cardinal remaining < 2 then
      Some (remove_nth partitions index)
    else
      (match partition_of ~config d remaining with
       | Some p' -> Some (replace_nth partitions index p')
       | None -> None)
  | Seed_pair ->
    if uncovered = [] then None
    else begin
      let a = Prng.pick rng uncovered in
      let partners =
        List.filter (fun id -> List.mem id uncovered) (Graph.preds g a @ Graph.succs g a)
      in
      if partners = [] then None
      else begin
        let b = Prng.pick rng partners in
        match partition_of ~config d (Node_id.set_of_list [ a; b ]) with
        | Some p -> Some (p :: partitions)
        | None -> None
      end
    end
  | Dissolve when n > 0 -> Some (remove_nth partitions (Prng.int rng n))
  | Merge when n > 1 ->
    let i = Prng.int rng n in
    let j = Prng.int rng n in
    if i = j then None
    else begin
      let a = List.nth partitions i and b = List.nth partitions j in
      match
        partition_of ~config d
          (Node_id.Set.union a.Partition.members b.Partition.members)
      with
      | Some fused ->
        let without =
          List.filteri (fun k _ -> k <> i && k <> j) partitions
        in
        Some (fused :: without)
      | None -> None
    end
  | Grow | Shrink | Dissolve | Merge -> None
  in
  (move, outcome)

let run ?(config = default_config) ?(start = Solution.empty) g =
  Obs.Journal.with_span "annealing.run"
    ~args:
      [ ("inner", string_of_int (Graph.inner_count g));
        ("iterations", string_of_int config.iterations) ]
  @@ fun () ->
  let rng = Prng.create config.seed in
  let d = Netlist.Dense.of_graph g in
  let journal = Obs.Journal.enabled () in
  if journal then
    Obs.Journal.emit
      (Obs.Journal.Run_started
         { phase = "annealing"; inner = Graph.inner_count g });
  let proposed = ref 0 and accepted = ref 0 in
  let rec anneal temperature current current_energy best best_energy
      remaining =
    if remaining = 0 then begin
      Obs.Metrics.set g_final_temperature temperature;
      best
    end
    else begin
      incr proposed;
      let move, next_state =
        propose ~config d rng current.Solution.partitions
      in
      let current, current_energy, best, best_energy =
        match next_state with
        | None -> (current, current_energy, best, best_energy)
        | Some partitions ->
          let candidate = { Solution.partitions } in
          let candidate_energy = energy g candidate in
          let accept =
            candidate_energy <= current_energy
            || Prng.float rng 1.0
               < exp ((current_energy -. candidate_energy) /. temperature)
          in
          if journal then
            Obs.Journal.emit
              (Obs.Journal.Anneal_move
                 {
                   move = move_label move;
                   accepted = accept;
                   temperature;
                   energy = candidate_energy;
                 });
          if accept then begin
            incr accepted;
            if candidate_energy < best_energy then
              (candidate, candidate_energy, candidate, candidate_energy)
            else (candidate, candidate_energy, best, best_energy)
          end
          else (current, current_energy, best, best_energy)
      in
      anneal (temperature *. config.cooling) current current_energy best
        best_energy (remaining - 1)
    end
  in
  let start_energy = energy g start in
  let best =
    anneal config.initial_temperature start start_energy start start_energy
      config.iterations
  in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_proposed !proposed;
  Obs.Metrics.add m_accepted !accepted;
  Obs.Metrics.add m_steps config.iterations;
  { solution = best; moves_accepted = !accepted; moves_proposed = !proposed }

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense

let m_runs = Obs.Metrics.counter "core.paredown.runs" ~doc:"decompositions performed"
let m_candidates =
  Obs.Metrics.counter "core.paredown.candidates"
    ~doc:"candidate partitions evaluated (outer iterations)"
let m_fit_checks =
  Obs.Metrics.counter "core.paredown.fit_checks"
    ~doc:"fits-in-a-programmable-block tests (§4.2: at most n(n+1)/2)"
let m_removals =
  Obs.Metrics.counter "core.paredown.removals" ~doc:"border blocks evicted"

type tie_break =
  | Greatest_indegree
  | Greatest_outdegree
  | Highest_level
  | Highest_id

type config = {
  shapes : Shape.t list;
  partition_config : Partition.config;
  tie_breaks : tie_break list;
}

let default_config = {
  shapes = [ Shape.default ];
  partition_config = Partition.default_config;
  tie_breaks = [ Greatest_indegree; Greatest_outdegree; Highest_level ];
}

type stats = {
  outer_iterations : int;
  fit_checks : int;
  removals : int;
}

type result = {
  solution : Solution.t;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* Candidate state over the compiled Dense view, with incremental
   per-edge pin accounting.

   All quantities PareDown consults per step are O(degree):

   rank(b) = (in + out)(P \ b) - (in + out)(P)
           =   #(internal edges incident to b)     [they become crossing]
             - #(crossing edges incident to b)     [they disappear]

   For the ablation-only net-based counting the deltas do not decompose
   per edge, so that mode recomputes the counts from scratch (it is only
   exercised on small designs). *)

type candidate = {
  d : Dense.t;
  config : config;
  members : Dense.set;
  mutable card : int;
  mutable inputs_used : int;
  mutable outputs_used : int;
}

let recount cand =
  let ins, outs =
    Partition.count_pins cand.config.partition_config cand.d cand.members
  in
  cand.inputs_used <- ins;
  cand.outputs_used <- outs

let candidate_of_set ~config d set =
  let members = Dense.set_of_ids d set in
  let cand =
    {
      d;
      config;
      members;
      card = Node_id.Set.cardinal set;
      inputs_used = 0;
      outputs_used = 0;
    }
  in
  recount cand;
  cand

(* rank of member [b] (compact index); per-edge counting is the O(degree)
   removal delta, per-net counting recomputes around a temporary flip. *)
let candidate_rank cand b =
  match cand.config.partition_config.Partition.pin_counting with
  | Partition.Per_edge ->
    let d_in, d_out = Dense.removal_delta cand.d cand.members b in
    d_in + d_out
  | Partition.Per_net ->
    let before = cand.inputs_used + cand.outputs_used in
    Dense.remove cand.members b;
    let without =
      Dense.inputs_used_nets cand.d cand.members
      + Dense.outputs_used_nets cand.d cand.members
    in
    Dense.add cand.members b;
    without - before

let candidate_remove cand b =
  (match cand.config.partition_config.Partition.pin_counting with
   | Partition.Per_edge ->
     let d_in, d_out = Dense.removal_delta cand.d cand.members b in
     Dense.remove cand.members b;
     cand.inputs_used <- cand.inputs_used + d_in;
     cand.outputs_used <- cand.outputs_used + d_out
   | Partition.Per_net ->
     Dense.remove cand.members b;
     recount cand);
  cand.card <- cand.card - 1

let candidate_is_border cand b = Dense.is_border cand.d cand.members b

(* The fit verdict keeps the two failure modes apart so the journal can
   report them separately; convexity is only evaluated when pins pass
   (it is the expensive half) and when the config demands it — [None]
   means "not consulted". *)
type fit_verdict = { pins_ok : bool; convex_ok : bool option }

let fit_verdict cand =
  let pins_ok =
    List.exists
      (fun shape ->
        Shape.fits shape ~inputs_used:cand.inputs_used
          ~outputs_used:cand.outputs_used)
      cand.config.shapes
  in
  let convex_ok =
    if pins_ok && cand.config.partition_config.Partition.require_convex then
      Some (Dense.is_convex cand.d cand.members)
    else None
  in
  { pins_ok; convex_ok }

let verdict_passes v = v.pins_ok && v.convex_ok <> Some false
let candidate_fits cand = verdict_passes (fit_verdict cand)

let chosen_shape cand =
  Shape.cheapest_fitting cand.config.shapes ~inputs_used:cand.inputs_used
    ~outputs_used:cand.outputs_used

(* ------------------------------------------------------------------ *)
(* Removal choice.                                                     *)

(* Tie-break key among equally-ranked border blocks: the smaller key is
   removed first.  The key depends only on the graph (not on the
   candidate), so [run] precomputes one per node. *)
let tie_key ~config ~levels g id =
  let level id =
    match Node_id.Map.find_opt id levels with Some l -> l | None -> 0
  in
  List.map
    (function
      | Greatest_indegree -> -Graph.in_degree g id
      | Greatest_outdegree -> -Graph.out_degree g id
      | Highest_level -> -level id
      | Highest_id -> -id)
    config.tie_breaks
  @ [ -id ]

let tie_keys ~config ~levels g d =
  Array.init (Dense.length d) (fun i ->
      tie_key ~config ~levels g (Dense.node_id d i))

let border_ranks_of cand =
  let acc = ref [] in
  Dense.iter_members cand.members (fun i ->
      if candidate_is_border cand i then
        acc := (Dense.node_id cand.d i, candidate_rank cand i) :: !acc);
  List.rev !acc

let choose_victim ~keys cand =
  let best = ref None in
  Dense.iter_members cand.members (fun i ->
      if candidate_is_border cand i then begin
        let rank = candidate_rank cand i in
        let key = (rank, keys.(i)) in
        match !best with
        | Some (_, _, best_key) when compare key best_key >= 0 -> ()
        | Some _ | None -> best := Some (i, rank, key)
      end);
  Option.map (fun (i, rank, _) -> (i, rank)) !best

(* ------------------------------------------------------------------ *)
(* Public one-off helpers (tests, walkthroughs).                       *)

let rank ?(config = default_config) g candidate b =
  let d = Dense.of_graph g in
  candidate_rank (candidate_of_set ~config d candidate) (Dense.index d b)

let removal_choice ?(config = default_config) g candidate =
  if Node_id.Set.is_empty candidate then None
  else
    let d = Dense.of_graph g in
    let levels = Graph.levels g in
    let keys = tie_keys ~config ~levels g d in
    Option.map
      (fun (i, _) -> Dense.node_id d i)
      (choose_victim ~keys (candidate_of_set ~config d candidate))

(* ------------------------------------------------------------------ *)
(* The decomposition method (Figure 4).                                *)

let run ?(config = default_config) g =
  Obs.Journal.with_span "paredown.run"
    ~args:[ ("inner", string_of_int (Graph.inner_count g)) ]
  @@ fun () ->
  let levels = Graph.levels g in
  let d = Dense.of_graph g in
  let keys = tie_keys ~config ~levels g d in
  (* The journal cannot be (un)installed mid-run, so the enabled guard is
     read once; every journal emit below allocates nothing when it is
     off, and payloads (border ranks in particular) are only built when
     it is on. *)
  let journal = Obs.Journal.enabled () in
  if journal then
    Obs.Journal.emit
      (Obs.Journal.Run_started
         { phase = "paredown"; inner = Graph.inner_count g });
  let outer = ref 0 in
  let fit_checks = ref 0 in
  let removals = ref 0 in
  let eligible = Node_id.Set.of_list (Graph.partitionable_nodes g) in
  (* [pare blocks cand] is the inner loop of Figure 4; returns the new
     working set and accumulated partitions. *)
  let rec pare blocks cand partitions =
    incr fit_checks;
    let fits =
      if journal then begin
        let v = fit_verdict cand in
        let fits = verdict_passes v in
        Obs.Journal.emit
          (Obs.Journal.Fit_check
             {
               inputs_used = cand.inputs_used;
               outputs_used = cand.outputs_used;
               pins_ok = v.pins_ok;
               convex_ok = v.convex_ok;
               fits;
             });
        fits
      end
      else candidate_fits cand
    in
    if fits then begin
      match cand.card with
      | 0 ->
        (* Only reachable by paring a lone unplaceable block down to
           nothing, which already left the working set: carry on with
           the rest. *)
        (blocks, partitions)
      | 1 ->
        let members = Dense.ids_of_set d cand.members in
        let id = Node_id.Set.choose members in
        if journal then
          Obs.Journal.emit
            (Obs.Journal.Rejected { node = id; reason = "left_single" });
        (Node_id.Set.diff blocks members, partitions)
      | _ ->
        let shape =
          match chosen_shape cand with
          | Some s -> s
          | None -> assert false (* candidate_fits just succeeded *)
        in
        let members = Dense.ids_of_set d cand.members in
        if journal then
          Obs.Journal.emit
            (Obs.Journal.Accepted
               {
                 members = Node_id.Set.elements members;
                 shape = Format.asprintf "%a" Shape.pp shape;
               });
        let partition = Partition.make ~members ~shape in
        (Node_id.Set.diff blocks members, partition :: partitions)
    end
    else begin
      if journal then
        Obs.Journal.emit (Obs.Journal.Ranked { ranks = border_ranks_of cand });
      match choose_victim ~keys cand with
      | None -> (blocks, partitions)  (* defensive; not reachable *)
      | Some (victim, victim_rank) ->
        incr removals;
        let victim_id = Dense.node_id d victim in
        if journal then begin
          (* The per-edge delta must be read before the membership flips;
             under per-net counting there is no per-edge decomposition to
             report. *)
          let d_in, d_out =
            match config.partition_config.Partition.pin_counting with
            | Partition.Per_edge ->
              let di, dd = Dense.removal_delta d cand.members victim in
              (Some di, Some dd)
            | Partition.Per_net -> (None, None)
          in
          Obs.Journal.emit
            (Obs.Journal.Removed
               { node = victim_id; rank = victim_rank; d_in; d_out })
        end;
        candidate_remove cand victim;
        let blocks =
          if cand.card = 0 then begin
            (* The victim could not fit even alone. *)
            if journal then
              Obs.Journal.emit
                (Obs.Journal.Rejected
                   { node = victim_id; reason = "unplaceable" });
            Node_id.Set.remove victim_id blocks
          end
          else blocks
        in
        pare blocks cand partitions
    end
  in
  let rec main blocks partitions =
    if Node_id.Set.is_empty blocks then partitions
    else begin
      incr outer;
      if journal then
        Obs.Journal.emit
          (Obs.Journal.Candidate_started
             { members = Node_id.Set.elements blocks });
      let cand = candidate_of_set ~config d blocks in
      let blocks, partitions = pare blocks cand partitions in
      main blocks partitions
    end
  in
  let partitions = List.rev (main eligible []) in
  Obs.Metrics.incr m_runs;
  Obs.Metrics.add m_candidates !outer;
  Obs.Metrics.add m_fit_checks !fit_checks;
  Obs.Metrics.add m_removals !removals;
  {
    solution = { Solution.partitions };
    stats =
      {
        outer_iterations = !outer;
        fit_checks = !fit_checks;
        removals = !removals;
      };
  }

(* ------------------------------------------------------------------ *)
(* Reliability-weighted mode.                                          *)

let m_weighted_runs =
  Obs.Metrics.counter "core.paredown.weighted_runs"
    ~doc:"reliability-weighted decompositions performed"

let m_weighted_dissolves =
  Obs.Metrics.counter "core.paredown.weighted_dissolves"
    ~doc:"partitions dissolved by reliability refinement"

type weighted_config = {
  lambda : float;
  lexicographic : bool;
  severity : Solution.t -> float;
}

let weighted_cost ~weighted g solution =
  ( float_of_int (Solution.total_inner_after g solution),
    weighted.severity solution )

type weighted_result = {
  base : result;
  solution : Solution.t;
  dissolved : int;
  base_severity : float;
  severity : float;
}

let run_weighted ?config ~weighted g =
  Obs.Journal.with_span "paredown.run_weighted"
    ~args:[ ("inner", string_of_int (Graph.inner_count g)) ]
  @@ fun () ->
  let base = run ?config g in
  if Obs.Journal.enabled () then
    Obs.Journal.emit
      (Obs.Journal.Run_started
         { phase = "paredown_weighted"; inner = Graph.inner_count g });
  (* Strictly-better comparison on the chosen objective; strictness is
     what guarantees the greedy loop stops. *)
  let better (cand_blocks, cand_sev) (cur_blocks, cur_sev) =
    if weighted.lexicographic then
      cand_sev < cur_sev || (cand_sev = cur_sev && cand_blocks < cur_blocks)
    else
      cand_blocks +. (weighted.lambda *. cand_sev)
      < cur_blocks +. (weighted.lambda *. cur_sev)
  in
  let remove_nth list index = List.filteri (fun i _ -> i <> index) list in
  let rec refine solution cost dissolved =
    let n = List.length solution.Solution.partitions in
    let best = ref None in
    for i = 0 to n - 1 do
      let candidate =
        { Solution.partitions = remove_nth solution.Solution.partitions i }
      in
      let candidate_cost = weighted_cost ~weighted g candidate in
      let beats_incumbent =
        match !best with
        | Some (_, incumbent_cost) -> better candidate_cost incumbent_cost
        | None -> better candidate_cost cost
      in
      if beats_incumbent then best := Some (candidate, candidate_cost)
    done;
    match !best with
    | Some (candidate, candidate_cost) ->
      Obs.Metrics.incr m_weighted_dissolves;
      refine candidate candidate_cost (dissolved + 1)
    | None -> (solution, cost, dissolved)
  in
  let base_cost = weighted_cost ~weighted g base.solution in
  let solution, (_, severity), dissolved = refine base.solution base_cost 0 in
  Obs.Metrics.incr m_weighted_runs;
  { base; solution; dissolved; base_severity = snd base_cost; severity }

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
(* Tie order.                                                          *)

(* Tie-break key among equally-ranked border blocks: the smaller key is
   removed first.  The key depends only on the graph, and it ends in the
   node id, so one sort per run orders all nodes totally; a node's
   position in that order breaks rank ties.  Levels are computed whatever
   the tie breaks, so a cyclic graph always raises. *)
let tie_order ~config d =
  let levels = Dense.levels d in
  let tie_key i =
    let id = Dense.node_id d i in
    List.map
      (function
        | Greatest_indegree -> -Dense.in_degree d i
        | Greatest_outdegree -> -Dense.out_degree d i
        | Highest_level -> -levels.(i)
        | Highest_id -> -id)
      config.tie_breaks
    @ [ -id ]
  in
  let keys = Array.init (Dense.length d) tie_key in
  let order = Array.init (Dense.length d) Fun.id in
  Array.sort (fun a b -> List.compare Int.compare keys.(a) keys.(b)) order;
  order

(* A binary min-heap of ints. *)
module Heap = struct
  type t = { mutable keys : int array; mutable size : int }

  let create () = { keys = Array.make 64 0; size = 0 }
  let clear h = h.size <- 0
  let is_empty h = h.size = 0

  let push h (key : int) =
    if h.size = Array.length h.keys then begin
      let keys = Array.make (2 * h.size) 0 in
      Array.blit h.keys 0 keys 0 h.size;
      h.keys <- keys
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && h.keys.((!i - 1) / 2) > key do
      h.keys.(!i) <- h.keys.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.keys.(!i) <- key

  (* The least key, removed; the heap must not be empty. *)
  let pop h =
    let top = h.keys.(0) in
    h.size <- h.size - 1;
    let last = h.keys.(h.size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < h.size && h.keys.(l + 1) < h.keys.(l) then l + 1 else l
      in
      if c < h.size && h.keys.(c) < last then begin
        h.keys.(!i) <- h.keys.(c);
        i := c
      end
      else sifting := false
    done;
    h.keys.(!i) <- last;
    top
end

(* ------------------------------------------------------------------ *)
(* Candidate state over the compiled Dense view.

   Per member b the candidate keeps two counts: [in_int], b's fanin
   edges that come from members, and [out_int], b's fanout edges that
   go to members.  Everything the loop reads derives from them, per
   edge (each of two parallel edges counts):

     border(b)  iff  in_int = 0 or out_int = 0       (§4.2's border block)
     rank(b)    =    2 (in_int + out_int) - indeg - outdeg
                     (= (in + out)(P \ b) - (in + out)(P), the sum of
                      Dense.removal_delta)
     inputs     =    sum over members of indeg - in_int
     outputs    =    sum over members of outdeg - out_int

   Removing v lowers the counts of v's member neighbours, once per edge,
   so within one candidate ranks only fall and border status only
   switches on.  Each border block waits in a heap keyed by (rank, tie
   position) and is offered again whenever its rank falls; an entry
   whose node has left or whose rank has fallen since is dropped when it
   reaches the top, so the first valid entry is the lowest-ranked border
   block, ties to the earliest tie position.

   Per-net counting (ablation only) does not decompose per edge: it
   recounts the pins and re-offers every border member with its
   recounted rank after each removal, a full member scan.

   One candidate is made per run and restarted per outer iteration, so
   concurrent runs share nothing. *)

type candidate = {
  d : Dense.t;
  config : config;
  n : int;
  offset : int;  (* no rank is below -offset, so heap keys are >= 0 *)
  order : int array;  (* tie position -> node *)
  position : int array;  (* node -> tie position *)
  in_int : int array;
  out_int : int array;
  rank : int array;  (* as last offered; current for border members *)
  heap : Heap.t;
  mutable members : Dense.set;
  mutable card : int;
  mutable inputs_used : int;
  mutable outputs_used : int;
}

let create ~config d =
  let n = Dense.length d in
  let order = tie_order ~config d in
  let position = Array.make n 0 in
  Array.iteri (fun p i -> position.(i) <- p) order;
  let offset = ref 0 in
  for i = 0 to n - 1 do
    offset := max !offset (Dense.in_degree d i + Dense.out_degree d i)
  done;
  {
    d;
    config;
    n;
    offset = !offset;
    order;
    position;
    in_int = Array.make n 0;
    out_int = Array.make n 0;
    rank = Array.make n 0;
    heap = Heap.create ();
    members = Dense.empty_set d;
    card = 0;
    inputs_used = 0;
    outputs_used = 0;
  }

let per_edge cand =
  cand.config.partition_config.Partition.pin_counting = Partition.Per_edge

let is_border cand b = cand.in_int.(b) = 0 || cand.out_int.(b) = 0

(* The [(d_inputs, d_outputs)] change of the pin counts if member [v]
   left: [Dense.removal_delta], read off the counts. *)
let removal_delta cand v =
  let ext_in = Dense.in_degree cand.d v - cand.in_int.(v)
  and ext_out = Dense.out_degree cand.d v - cand.out_int.(v) in
  (cand.out_int.(v) - ext_in, cand.in_int.(v) - ext_out)

let current_rank cand b =
  if per_edge cand then
    let d_in, d_out = removal_delta cand b in
    d_in + d_out
  else begin
    (* per-net counting: recount around a temporary flip *)
    let before = cand.inputs_used + cand.outputs_used in
    Dense.remove cand.members b;
    let without =
      Dense.inputs_used_nets cand.d cand.members
      + Dense.outputs_used_nets cand.d cand.members
    in
    Dense.add cand.members b;
    without - before
  end

let key cand b = ((cand.rank.(b) + cand.offset) * cand.n) + cand.position.(b)

let offer cand b =
  cand.rank.(b) <- current_rank cand b;
  Heap.push cand.heap (key cand b)

let offer_border_members cand =
  Heap.clear cand.heap;
  Dense.iter_members cand.members (fun b ->
      if is_border cand b then offer cand b)

let recount_nets cand =
  cand.inputs_used <- Dense.inputs_used_nets cand.d cand.members;
  cand.outputs_used <- Dense.outputs_used_nets cand.d cand.members

(* Restart on a new member set: counts, pins and heap from scratch. *)
let start cand set =
  let d = cand.d in
  let members = Dense.set_of_ids d set in
  cand.members <- members;
  cand.card <- Node_id.Set.cardinal set;
  cand.inputs_used <- 0;
  cand.outputs_used <- 0;
  Dense.iter_members members (fun b ->
      let inside = ref 0 in
      Dense.iter_fanin d b (fun u -> if Dense.mem members u then incr inside);
      cand.in_int.(b) <- !inside;
      inside := 0;
      Dense.iter_fanout d b (fun w -> if Dense.mem members w then incr inside);
      cand.out_int.(b) <- !inside;
      cand.inputs_used <-
        cand.inputs_used + Dense.in_degree d b - cand.in_int.(b);
      cand.outputs_used <-
        cand.outputs_used + Dense.out_degree d b - cand.out_int.(b));
  if not (per_edge cand) then recount_nets cand;
  offer_border_members cand

let remove cand v =
  let d_in, d_out = removal_delta cand v in
  let members = cand.members in
  Dense.remove members v;
  cand.card <- cand.card - 1;
  let edge = per_edge cand in
  let lowered u = if edge && is_border cand u then offer cand u in
  Dense.iter_fanin cand.d v (fun u ->
      if Dense.mem members u then begin
        cand.out_int.(u) <- cand.out_int.(u) - 1;
        lowered u
      end);
  Dense.iter_fanout cand.d v (fun w ->
      if Dense.mem members w then begin
        cand.in_int.(w) <- cand.in_int.(w) - 1;
        lowered w
      end);
  if edge then begin
    cand.inputs_used <- cand.inputs_used + d_in;
    cand.outputs_used <- cand.outputs_used + d_out
  end
  else begin
    recount_nets cand;
    offer_border_members cand
  end

(* The lowest-ranked border block, ties to the earliest tie position;
   [None] only on an empty candidate. *)
let rec pop_victim cand =
  if Heap.is_empty cand.heap then None
  else
    let k = Heap.pop cand.heap in
    let b = cand.order.(k mod cand.n) in
    if Dense.mem cand.members b && k = key cand b then Some b
    else pop_victim cand

let border_ranks cand =
  let acc = ref [] in
  Dense.iter_members cand.members (fun b ->
      if is_border cand b then
        acc := (Dense.node_id cand.d b, cand.rank.(b)) :: !acc);
  List.rev !acc

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
(* The decomposition method (Figure 4).                                *)

let run ?(config = default_config) g =
  Obs.Journal.with_span "paredown.run"
    ~args:[ ("inner", string_of_int (Graph.inner_count g)) ]
  @@ fun () ->
  let d = Dense.of_graph g in
  let cand = create ~config d in
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
  (* [pare blocks partitions] is the inner loop of Figure 4 on the
     current candidate; returns the new working set and accumulated
     partitions. *)
  let rec pare blocks partitions =
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
        Obs.Journal.emit (Obs.Journal.Ranked { ranks = border_ranks cand });
      match pop_victim cand with
      | None -> assert false (* a candidate that fails is nonempty, and a
                                nonempty acyclic candidate has a border
                                block *)
      | Some victim ->
        incr removals;
        let victim_id = Dense.node_id d victim in
        if journal then begin
          (* under per-net counting there is no per-edge decomposition
             to report *)
          let d_in, d_out =
            if per_edge cand then
              let di, dd = removal_delta cand victim in
              (Some di, Some dd)
            else (None, None)
          in
          Obs.Journal.emit
            (Obs.Journal.Removed
               { node = victim_id; rank = cand.rank.(victim); d_in; d_out })
        end;
        remove cand victim;
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
        pare blocks partitions
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
      start cand blocks;
      let blocks, partitions = pare blocks partitions in
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

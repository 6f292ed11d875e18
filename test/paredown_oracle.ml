(* PareDown's victim choice two ways, as references for the library's
   heap of border ranks:

   - the scan the library ran before it kept ranks incrementally: every
     member of the candidate, its border status and rank recomputed on
     the Dense view, keyed by (rank, tie_key) under polymorphic compare;
   - set-based answers over Node_id sets, from Cut_oracle's border
     blocks and Partition_oracle's pin counts, which share no code with
     Dense.

   test_paredown.ml holds every journaled removal against both. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense
module Paredown = Core.Paredown
module Partition = Core.Partition

(* Tie-break key among equally-ranked border blocks: the smaller key is
   removed first. *)
let tie_key ~(config : Paredown.config) ~levels g id =
  let level id =
    match Node_id.Map.find_opt id levels with Some l -> l | None -> 0
  in
  List.map
    (function
      | Paredown.Greatest_indegree -> -Graph.in_degree g id
      | Paredown.Greatest_outdegree -> -Graph.out_degree g id
      | Paredown.Highest_level -> -level id
      | Paredown.Highest_id -> -id)
    config.tie_breaks
  @ [ -id ]

let tie_keys ~config g d =
  let levels = Graph.levels g in
  Array.init (Dense.length d) (fun i ->
      tie_key ~config ~levels g (Dense.node_id d i))

(* --- The scan ------------------------------------------------------------ *)

(* "A block in which every output or every input connects to a block
   outside of the candidate partition" (§4.2).  A node with no fanin
   (resp. no fanout) vacuously satisfies the corresponding clause.  The
   library reads border status off the candidate's counts instead. *)
let is_border d members i =
  let all_outside iter =
    let outside = ref true in
    iter d i (fun j -> if Dense.mem members j then outside := false);
    !outside
  in
  all_outside Dense.iter_fanin || all_outside Dense.iter_fanout

(* Rank of member [b] (compact index): per-edge counting is the removal
   delta, per-net counting recounts around a temporary flip. *)
let dense_rank ~(config : Paredown.config) d members b =
  match config.partition_config.Partition.pin_counting with
  | Partition.Per_edge ->
    let d_in, d_out = Dense.removal_delta d members b in
    d_in + d_out
  | Partition.Per_net ->
    let io () =
      Dense.inputs_used_nets d members + Dense.outputs_used_nets d members
    in
    let before = io () in
    Dense.remove members b;
    let without = io () in
    Dense.add members b;
    without - before

let choose_victim ~config ~keys d members =
  let best = ref None in
  Dense.iter_members members (fun i ->
      if is_border d members i then begin
        let key = (dense_rank ~config d members i, keys.(i)) in
        match !best with
        | Some (_, best_key) when compare key best_key >= 0 -> ()
        | Some _ | None -> best := Some (i, key)
      end);
  Option.map fst !best

let rank ?(config = Paredown.default_config) g candidate b =
  let d = Dense.of_graph g in
  dense_rank ~config d (Dense.set_of_ids d candidate) (Dense.index d b)

let removal_choice ?(config = Paredown.default_config) g candidate =
  if Node_id.Set.is_empty candidate then None
  else
    let d = Dense.of_graph g in
    let keys = tie_keys ~config g d in
    Option.map (Dense.node_id d)
      (choose_victim ~config ~keys d (Dense.set_of_ids d candidate))

(* --- Set-based ------------------------------------------------------------ *)

(* The border blocks of [candidate] in increasing id order, each with
   rank io(P \ b) - io(P). *)
let border_ranks ~(config : Paredown.config) g candidate =
  let io set =
    Partition_oracle.io_used ~config:config.partition_config g set
  in
  let base = io candidate in
  List.map
    (fun b -> (b, io (Node_id.Set.remove b candidate) - base))
    (Cut_oracle.border_blocks g candidate)

(* The border block with the least (rank, tie_key), and its rank. *)
let victim ~config ~levels g candidate =
  List.fold_left
    (fun best (b, rank) ->
      let key = (rank, tie_key ~config ~levels g b) in
      match best with
      | Some (_, best_key) when compare key best_key >= 0 -> best
      | Some _ | None -> Some ((b, rank), key))
    None
    (border_ranks ~config g candidate)
  |> Option.map fst

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Dense = Netlist.Dense

type pin_counting =
  | Per_edge
  | Per_net

type config = {
  pin_counting : pin_counting;
  require_convex : bool;
}

let default_config = { pin_counting = Per_edge; require_convex = true }

type t = {
  members : Node_id.Set.t;
  shape : Shape.t;
}

let make ~members ~shape = { members; shape }

type invalidity =
  | Too_few_members of int
  | Not_partitionable of Node_id.t
  | Unknown_node of Node_id.t
  | Too_many_inputs of { used : int; available : int }
  | Too_many_outputs of { used : int; available : int }
  | Not_convex

let pp_invalidity ppf = function
  | Too_few_members n ->
    Format.fprintf ppf "only %d member(s); a partition needs at least 2" n
  | Not_partitionable id ->
    Format.fprintf ppf "node %d cannot be absorbed into a programmable block"
      id
  | Unknown_node id -> Format.fprintf ppf "node %d is not in the network" id
  | Too_many_inputs { used; available } ->
    Format.fprintf ppf "needs %d inputs but the block has %d" used available
  | Too_many_outputs { used; available } ->
    Format.fprintf ppf "needs %d outputs but the block has %d" used available
  | Not_convex ->
    Format.fprintf ppf
      "a path leaves the partition and re-enters it; replacement would \
       create a loop"

let count_pins config d s =
  match config.pin_counting with
  | Per_edge -> Dense.pins_used d s
  | Per_net -> (Dense.inputs_used_nets d s, Dense.outputs_used_nets d s)

let pins_used ?(config = default_config) d set =
  count_pins config d (Dense.set_of_ids d set)

let fits_shape ?(config = default_config) d shape set =
  let s = Dense.set_of_ids d set in
  let inputs_used, outputs_used = count_pins config d s in
  Shape.fits shape ~inputs_used ~outputs_used
  && ((not config.require_convex) || Dense.is_convex d s)

let members_eligible g set =
  Node_id.Set.fold
    (fun id acc ->
      match acc with
      | Error _ -> acc
      | Ok () ->
        if not (Graph.mem g id) then Error (Unknown_node id)
        else if not (Eblock.Kind.partitionable (Graph.kind g id)) then
          Error (Not_partitionable id)
        else Ok ())
    set (Ok ())

let check ?(config = default_config) d { members; shape } =
  (* eligibility first: [Dense.set_of_ids] raises on unknown ids *)
  match members_eligible (Dense.graph d) members with
  | Error _ as e -> e
  | Ok () ->
    let size = Node_id.Set.cardinal members in
    if size < 2 then Error (Too_few_members size)
    else
      let s = Dense.set_of_ids d members in
      let used_in, used_out = count_pins config d s in
      if used_in > shape.Shape.inputs then
        Error (Too_many_inputs { used = used_in; available = shape.Shape.inputs })
      else if used_out > shape.Shape.outputs then
        Error
          (Too_many_outputs
             { used = used_out; available = shape.Shape.outputs })
      else if config.require_convex && not (Dense.is_convex d s) then
        Error Not_convex
      else Ok ()

let is_valid ?config d p =
  match check ?config d p with Ok () -> true | Error _ -> false

let pp ppf { members; shape } =
  Format.fprintf ppf "%a on a %a block" Node_id.pp_set members Shape.pp shape

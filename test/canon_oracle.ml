(* The list-based canonical labelling that Service.Canon replaced, kept
   verbatim as a differential oracle: polymorphic-compare colour
   refinement with Hashtbl dense ranking and an unpruned
   individualization search.  Wherever its search finishes within the
   refine budget, Service.Canon must produce the same rendered form
   (hence digest) and the same canonical order. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type t = {
  order : Node_id.t array;
  index : (Node_id.t, int) Hashtbl.t;
  rendered : string;
  digest : string;
  exact : bool;
}

(* ------------------------------------------------------------------ *)
(* Node signatures.                                                    *)
(* A node's signature is everything the partitioning backends and the
   rendered report can observe about its descriptor: class, arities,
   behaviour text, power-on outputs, and cost.  Deliberately NOT the
   descriptor name and NOT the node id/label — two networks that differ
   only in those produce byte-identical partition reports (the report
   speaks in member counts, shapes and costs), so they may share a cache
   entry. *)

let value_string v = Format.asprintf "%a" Behavior.Ast.pp_value v

let node_signature g id =
  let d = Graph.descriptor g id in
  let init =
    d.Eblock.Descriptor.output_init
    |> Array.to_list
    |> List.map value_string
    |> String.concat ","
  in
  Printf.sprintf "%s/%d/%d/%s/%s/%h"
    (Eblock.Kind.to_string d.Eblock.Descriptor.kind)
    d.Eblock.Descriptor.n_inputs d.Eblock.Descriptor.n_outputs
    (Digest.to_hex
       (Digest.string
          (Behavior.Ast.program_to_string d.Eblock.Descriptor.behavior)))
    init d.Eblock.Descriptor.cost

(* ------------------------------------------------------------------ *)
(* Colour refinement (1-dimensional Weisfeiler–Leman) with
   individualization on ties.  Positions (dense ints) stand in for node
   ids throughout; [ids.(p)] maps back. *)

type state = {
  ids : Node_id.t array;
  sigs : string array;
  neigh : (int * int * int * int) list array;
      (* (dir, own_port, other_port, other_pos); dir 0 = fanin, 1 = fanout *)
}

exception Fallback

let build g =
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  let pos = Hashtbl.create (max 16 n) in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) ids;
  let sigs = Array.map (node_signature g) ids in
  let neigh = Array.make n [] in
  List.iter
    (fun (e : Graph.edge) ->
      let si = Hashtbl.find pos e.src.node
      and di = Hashtbl.find pos e.dst.node in
      neigh.(si) <- (1, e.src.port, e.dst.port, di) :: neigh.(si);
      neigh.(di) <- (0, e.dst.port, e.src.port, si) :: neigh.(di))
    (Graph.edges g);
  { ids; sigs; neigh }

(* Dense re-ranking: map an array of comparable keys to colours
   0..k-1 preserving key order, so colour vectors from different
   branches stay comparable. *)
let rank_of_keys keys =
  let ranked = List.sort_uniq compare (Array.to_list keys) in
  let rank = Hashtbl.create (List.length ranked) in
  List.iteri (fun r s -> Hashtbl.replace rank s r) ranked;
  (Array.map (fun s -> Hashtbl.find rank s) keys, List.length ranked)

let initial_colors state = fst (rank_of_keys state.sigs)

let color_count colors =
  1 + Array.fold_left max (-1) colors

(* Refine until stable.  Each round's key includes the previous colour,
   so the partition only ever splits — at most n rounds; the budget
   guards the total work across individualization branches. *)
let refine state colors budget =
  let n = Array.length colors in
  let cur = ref colors in
  let stable = ref false in
  while not !stable do
    decr budget;
    if !budget < 0 then raise Fallback;
    let c = !cur in
    let keys =
      Array.init n (fun i ->
          ( c.(i),
            List.sort compare
              (List.map
                 (fun (d, op, tp, j) -> (d, op, tp, c.(j)))
                 state.neigh.(i)) ))
    in
    let next, k = rank_of_keys keys in
    if k = color_count c then stable := true;
    cur := next
  done;
  !cur

(* positions sorted by colour; discrete colouring makes this a total
   order *)
let order_of_colors colors =
  let n = Array.length colors in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare colors.(a) colors.(b)) order;
  order

let render state order =
  let n = Array.length order in
  let inv = Array.make n 0 in
  Array.iteri (fun ci p -> inv.(p) <- ci) order;
  let buf = Buffer.create 256 in
  Array.iteri
    (fun ci p -> Buffer.add_string buf (Printf.sprintf "n%d:%s\n" ci state.sigs.(p)))
    order;
  let edges = ref [] in
  Array.iteri
    (fun p adj ->
      List.iter
        (fun (d, op, tp, j) ->
          if d = 1 then edges := (inv.(p), op, inv.(j), tp) :: !edges)
        adj)
    state.neigh;
  List.iter
    (fun (a, ap, b, bp) ->
      Buffer.add_string buf (Printf.sprintf "e%d.%d->%d.%d\n" a ap b bp))
    (List.sort compare !edges);
  Buffer.contents buf

let rec search state colors budget =
  let colors = refine state colors budget in
  let n = Array.length colors in
  if color_count colors = n then begin
    let order = order_of_colors colors in
    (render state order, order)
  end
  else begin
    (* smallest ambiguous colour class *)
    let counts = Array.make n 0 in
    Array.iter (fun c -> counts.(c) <- counts.(c) + 1) colors;
    let target = ref 0 in
    while counts.(!target) < 2 do incr target done;
    let members = ref [] in
    for p = n - 1 downto 0 do
      if colors.(p) = !target then members := p :: !members
    done;
    let best = ref None in
    List.iter
      (fun m ->
        let keys =
          Array.mapi (fun i c -> (c, if i = m then 0 else 1)) colors
        in
        let branch = fst (rank_of_keys keys) in
        let candidate = search state branch budget in
        match !best with
        | Some (s, _) when s <= fst candidate -> ()
        | _ -> best := Some candidate)
      !members;
    match !best with Some c -> c | None -> assert false
  end

let refine_budget = 2_000
let max_search_nodes = 512

let of_graph g =
  let state = build g in
  let n = Array.length state.ids in
  let order, exact =
    if n > max_search_nodes then (Array.init n (fun i -> i), false)
    else
      let budget = ref refine_budget in
      match search state (initial_colors state) budget with
      | _, order -> (order, true)
      | exception Fallback -> (Array.init n (fun i -> i), false)
  in
  let rendered = render state order in
  let ids = Array.map (fun p -> state.ids.(p)) order in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri (fun ci id -> Hashtbl.replace index id ci) ids;
  {
    order = ids;
    index;
    rendered;
    digest = Digest.to_hex (Digest.string rendered);
    exact;
  }

let digest t = t.digest
let size t = Array.length t.order
let exact t = t.exact
let index_of t id = Hashtbl.find t.index id
let id_of t i = t.order.(i)

let labels_digest g =
  Digest.to_hex (Digest.string (Netlist.Textio.to_string g))

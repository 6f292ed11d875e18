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

let descriptor_signature (d : Eblock.Descriptor.t) =
  let init =
    d.output_init |> Array.to_list |> List.map value_string
    |> String.concat ","
  in
  Printf.sprintf "%s/%d/%d/%s/%s/%h"
    (Eblock.Kind.to_string d.kind)
    d.n_inputs d.n_outputs
    (Digest.to_hex
       (Digest.string (Behavior.Ast.program_to_string d.behavior)))
    init d.cost

(* ------------------------------------------------------------------ *)
(* Colour refinement (1-dimensional Weisfeiler–Leman) with
   individualization on ties.  Positions (dense ints) stand in for node
   ids throughout; [ids.(p)] maps back.

   A node's refinement key is its colour followed by the sorted list of
   its neighbour tuples (dir, own_port, other_port, other_colour), dir 0
   = fanin, 1 = fanout.  The static (dir, own_port, other_port) part is
   ranked once, order-preserving, so a tuple packs into the single int
   [rank * n + other_colour] and a key is a colour plus a sorted int
   segment.  New colours are the dense ranks of the keys in key order,
   so colour vectors from different search branches stay comparable. *)

type state = {
  n : int;
  ids : Node_id.t array;
  sigs : string array;
  initial : int array;  (** dense rank of [sigs] *)
  initial_count : int;
  off : int array;
      (** CSR: the neighbour tuples of position [p] sit at
          [off.(p) .. off.(p+1) - 1] *)
  nb_rank : int array;  (** rank of the tuple's (dir, own, other) ports *)
  nb_pos : int array;  (** the neighbour's position *)
  edge_src : int array;
  edge_src_port : int array;
  edge_dst : int array;
  edge_dst_port : int array;
  ports : int;  (** one more than the largest port index *)
  (* Scratch reused by every refinement round and search node. *)
  keys : int array;  (** packed neighbour tuples, aligned with [nb_pos] *)
  perm : int array;  (** positions sorted by key *)
  next : int array;  (** the round's new colours *)
  counts : int array;  (** per-colour counts / class ends *)
  inv : int array;  (** render: position -> canonical index *)
  edge_keys : int array;  (** render: packed, sorted edge lines *)
  buf : Buffer.t;  (** render output *)
}

exception Fallback

(* [a.(lo) .. a.(hi-1)] sorted by [cmp]: three-way quicksort (classes of
   equal keys are common) with insertion sort on short ranges. *)
let rec sort_range cmp a lo hi =
  if hi - lo <= 12 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && cmp a.(!j) x > 0 do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let x = a.(lo) and y = a.(mid) and z = a.(hi - 1) in
    let pivot =
      if cmp x y < 0 then if cmp y z < 0 then y else if cmp x z < 0 then z else x
      else if cmp x z < 0 then x
      else if cmp y z < 0 then z
      else y
    in
    let lt = ref lo and i = ref lo and gt = ref (hi - 1) in
    while !i <= !gt do
      let v = a.(!i) in
      let c = cmp v pivot in
      if c < 0 then begin
        a.(!i) <- a.(!lt);
        a.(!lt) <- v;
        incr lt;
        incr i
      end
      else if c > 0 then begin
        a.(!i) <- a.(!gt);
        a.(!gt) <- v;
        decr gt
      end
      else incr i
    done;
    sort_range cmp a lo !lt;
    sort_range cmp a (!gt + 1) hi
  end

(* Dense ranks of [n] keys under [cmp]: writes them to [out] and
   returns how many distinct keys there are.  [perm] is scratch. *)
let dense_rank cmp perm out n =
  for p = 0 to n - 1 do
    perm.(p) <- p
  done;
  sort_range cmp perm 0 n;
  let k = ref 0 in
  for i = 0 to n - 1 do
    if i > 0 && cmp perm.(i - 1) perm.(i) <> 0 then incr k;
    out.(perm.(i)) <- !k
  done;
  if n = 0 then 0 else !k + 1

let build g =
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  let pos = Hashtbl.create (max 16 n) in
  Array.iteri (fun i id -> Hashtbl.replace pos id i) ids;
  (* Nodes share descriptors, and a signature costs a pretty-print and a
     digest, so compute one per descriptor (by physical identity). *)
  let memo = Hashtbl.create 16 in
  let signature id =
    let d = Graph.descriptor g id in
    let name = d.Eblock.Descriptor.name in
    match
      List.find_opt (fun (d', _) -> d' == d) (Hashtbl.find_all memo name)
    with
    | Some (_, s) -> s
    | None ->
      let s = descriptor_signature d in
      Hashtbl.add memo name (d, s);
      s
  in
  let sigs = Array.map signature ids in
  let edges = Array.of_list (Graph.edges g) in
  let m = Array.length edges in
  let edge_src = Array.make m 0 and edge_src_port = Array.make m 0 in
  let edge_dst = Array.make m 0 and edge_dst_port = Array.make m 0 in
  let degree = Array.make (n + 1) 0 in
  let ports = ref 1 in
  Array.iteri
    (fun i (e : Graph.edge) ->
      let s = Hashtbl.find pos e.src.node and d = Hashtbl.find pos e.dst.node in
      edge_src.(i) <- s;
      edge_src_port.(i) <- e.src.port;
      edge_dst.(i) <- d;
      edge_dst_port.(i) <- e.dst.port;
      ports := max !ports (1 + max e.src.port e.dst.port);
      degree.(s + 1) <- degree.(s + 1) + 1;
      degree.(d + 1) <- degree.(d + 1) + 1)
    edges;
  let ports = !ports in
  let off = Array.make (n + 1) 0 in
  for p = 1 to n do
    off.(p) <- off.(p - 1) + degree.(p)
  done;
  let fill = Array.sub off 0 (max n 1) in
  let nb_ports = Array.make (2 * m) 0 and nb_pos = Array.make (2 * m) 0 in
  let add p dir own other j =
    let slot = fill.(p) in
    fill.(p) <- slot + 1;
    nb_ports.(slot) <- (((dir * ports) + own) * ports) + other;
    nb_pos.(slot) <- j
  in
  for i = 0 to m - 1 do
    add edge_src.(i) 1 edge_src_port.(i) edge_dst_port.(i) edge_dst.(i);
    add edge_dst.(i) 0 edge_dst_port.(i) edge_src_port.(i) edge_src.(i)
  done;
  (* order-preserving rank of the static port triples *)
  let nb_rank = Array.make (2 * m) 0 in
  let perm = Array.make (max n (2 * m)) 0 in
  ignore
    (dense_rank
       (fun a b -> Int.compare nb_ports.(a) nb_ports.(b))
       perm nb_rank (2 * m));
  let initial = Array.make n 0 in
  let initial_count =
    dense_rank (fun a b -> String.compare sigs.(a) sigs.(b)) perm initial n
  in
  {
    n;
    ids;
    sigs;
    initial;
    initial_count;
    off;
    nb_rank;
    nb_pos;
    edge_src;
    edge_src_port;
    edge_dst;
    edge_dst_port;
    ports;
    keys = Array.make (2 * m) 0;
    perm;
    next = Array.make n 0;
    counts = Array.make (n + 1) 0;
    inv = Array.make n 0;
    edge_keys = Array.make m 0;
    buf = Buffer.create 4096;
  }

(* Lexicographic order of two positions' neighbour segments in [keys];
   a proper prefix sorts first. *)
let compare_segments st a b =
  let keys = st.keys and off = st.off in
  let ha = off.(a + 1) and hb = off.(b + 1) in
  let rec go i j =
    if i = ha then if j = hb then 0 else -1
    else if j = hb then 1
    else
      let x = keys.(i) and y = keys.(j) in
      if x <> y then Int.compare x y else go (i + 1) (j + 1)
  in
  go off.(a) off.(b)

(* One refinement round of the dense colouring [c] with [k] colours:
   writes the new colouring to [st.next] and returns its colour count.
   Nodes are bucketed by colour, and only classes of two or more need
   their neighbour segments built and compared. *)
let refine_round st c k =
  let n = st.n and counts = st.counts and perm = st.perm in
  Array.fill counts 0 (k + 1) 0;
  for p = 0 to n - 1 do
    counts.(c.(p) + 1) <- counts.(c.(p) + 1) + 1
  done;
  for col = 1 to k do
    counts.(col) <- counts.(col) + counts.(col - 1)
  done;
  (* counts.(col) is now the start of class [col]; placing advances it
     to the class's end *)
  for p = 0 to n - 1 do
    let col = c.(p) in
    perm.(counts.(col)) <- p;
    counts.(col) <- counts.(col) + 1
  done;
  let cmp = compare_segments st in
  let next = st.next in
  let colour = ref (-1) in
  for col = 0 to k - 1 do
    let lo = if col = 0 then 0 else counts.(col - 1) and hi = counts.(col) in
    if hi - lo >= 2 then begin
      for i = lo to hi - 1 do
        let p = perm.(i) in
        let first = st.off.(p) and last = st.off.(p + 1) in
        for e = first to last - 1 do
          st.keys.(e) <- (st.nb_rank.(e) * n) + c.(st.nb_pos.(e))
        done;
        sort_range Int.compare st.keys first last
      done;
      sort_range cmp perm lo hi
    end;
    for i = lo to hi - 1 do
      if i = lo || cmp perm.(i - 1) perm.(i) <> 0 then incr colour;
      next.(perm.(i)) <- !colour
    done
  done;
  !colour + 1

(* Refine [c] (dense, [k] colours) in place until stable and return the
   final colour count.  Each round's key includes the previous colour,
   so the partition only ever splits — at most n rounds; the budget
   guards the total work across individualization branches. *)
let refine st c k budget =
  let rec loop k =
    decr budget;
    if !budget < 0 then raise Fallback;
    let k' = refine_round st c k in
    Array.blit st.next 0 c 0 st.n;
    if k' = k then k else loop k'
  in
  loop k

(* The rendered form of a node order: one line per node in canonical
   order, then the edges sorted by (src, src port, dst, dst port). *)
let render st order =
  let n = st.n and ports = st.ports and inv = st.inv in
  Array.iteri (fun ci p -> inv.(p) <- ci) order;
  let m = Array.length st.edge_src in
  let buf = st.buf in
  Buffer.clear buf;
  let add_int i = Buffer.add_string buf (string_of_int i) in
  Array.iteri
    (fun ci p ->
      Buffer.add_char buf 'n';
      add_int ci;
      Buffer.add_char buf ':';
      Buffer.add_string buf st.sigs.(p);
      Buffer.add_char buf '\n')
    order;
  let ek = st.edge_keys in
  for i = 0 to m - 1 do
    ek.(i) <-
      (((((inv.(st.edge_src.(i)) * ports) + st.edge_src_port.(i)) * n)
        + inv.(st.edge_dst.(i)))
       * ports)
      + st.edge_dst_port.(i)
  done;
  sort_range Int.compare ek 0 m;
  Array.iter
    (fun key ->
      let dp = key mod ports and rest = key / ports in
      let b = rest mod n and rest = rest / n in
      let ap = rest mod ports and a = rest / ports in
      Buffer.add_char buf 'e';
      add_int a;
      Buffer.add_char buf '.';
      add_int ap;
      Buffer.add_string buf "->";
      add_int b;
      Buffer.add_char buf '.';
      add_int dp;
      Buffer.add_char buf '\n')
    ek;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Search over individualizations, pruned by automorphisms.

   A search node individualizes, one at a time, each member of the
   first colour class with two or more members, and keeps the child
   whose best leaf renders smallest — the first such child on ties.
   When a later child's best leaf renders equal to the current best,
   mapping the best leaf's order onto the candidate's position by
   position is an automorphism; it fixes every node individualized
   above this search node.  Such an automorphism maps each child's
   subtree onto another's with equal renders, so a member whose orbit
   (under the automorphisms found so far that fix the node's prefix)
   already holds an explored member cannot change the result: its
   child's best equals that member's, which came first.  Skipping it
   leaves the minimum and the first-found order unchanged. *)

type ctx = {
  st : state;
  budget : int ref;
  mutable autos : int array list;
      (** automorphisms found so far, newest first, each as the map
          position -> image *)
  mutable n_autos : int;
  levels : int array array;  (** colour buffer per search depth *)
}

(* Depth stays below max n 1: each level adds a colour, and a leaf has
   n colours. *)
let level ctx depth =
  if Array.length ctx.levels.(depth) = 0 then
    ctx.levels.(depth) <- Array.make ctx.st.n 0;
  ctx.levels.(depth)

(* index of [x] in the ascending array [a] *)
let index_in a x =
  let rec go lo hi =
    if lo >= hi then raise Not_found;
    let mid = (lo + hi) / 2 in
    if a.(mid) = x then mid else if a.(mid) < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = find parent p in
    parent.(i) <- r;
    r
  end

let rec search ctx depth prefix k =
  let st = ctx.st in
  let colors = level ctx depth in
  let k = refine st colors k ctx.budget in
  let n = st.n in
  if k = n then begin
    let order = Array.make n 0 in
    Array.iteri (fun p c -> order.(c) <- p) colors;
    (render st order, order)
  end
  else begin
    (* the first colour class with two or more members *)
    let counts = st.counts in
    Array.fill counts 0 n 0;
    Array.iter (fun c -> counts.(c) <- counts.(c) + 1) colors;
    let target = ref 0 in
    while counts.(!target) < 2 do
      incr target
    done;
    let t = !target in
    let members = Array.make counts.(t) 0 in
    let j = ref 0 in
    Array.iteri
      (fun p c ->
        if c = t then begin
          members.(!j) <- p;
          incr j
        end)
      colors;
    (* orbits of the members, as a union-find over member indices, with
       a flag on each root whose orbit holds an explored member *)
    let size = Array.length members in
    let parent = Array.init size Fun.id in
    let explored = Array.make size false in
    let absorbed = ref 0 in
    let absorb () =
      let rec fresh count autos =
        match autos with
        | perm :: older when count > 0 ->
          if List.for_all (fun v -> perm.(v) = v) prefix then
            Array.iteri
              (fun i m ->
                let ri = find parent i
                and rj = find parent (index_in members perm.(m)) in
                if ri <> rj then begin
                  parent.(rj) <- ri;
                  explored.(ri) <- explored.(ri) || explored.(rj)
                end)
              members;
          fresh (count - 1) older
        | _ -> ()
      in
      fresh (ctx.n_autos - !absorbed) ctx.autos;
      absorbed := ctx.n_autos
    in
    let best = ref None in
    Array.iteri
      (fun i m ->
        absorb ();
        let root = find parent i in
        if not explored.(root) then begin
          explored.(root) <- true;
          let child = level ctx (depth + 1) in
          Array.iteri
            (fun p c -> child.(p) <- (if c < t || p = m then c else c + 1))
            colors;
          let ((rendered, order) as candidate) =
            search ctx (depth + 1) (m :: prefix) (k + 1)
          in
          match !best with
          | None -> best := Some candidate
          | Some (best_rendered, best_order) ->
            let c = String.compare best_rendered rendered in
            if c > 0 then best := Some candidate
            else if c = 0 then begin
              let perm = Array.make n 0 in
              Array.iteri (fun ci p -> perm.(p) <- order.(ci)) best_order;
              ctx.autos <- perm :: ctx.autos;
              ctx.n_autos <- ctx.n_autos + 1
            end
        end)
      members;
    match !best with Some c -> c | None -> assert false
  end

let refine_budget = 2_000
let max_search_nodes = 512

let of_graph g =
  let st = build g in
  let n = st.n in
  let order, exact =
    if n > max_search_nodes then (Array.init n Fun.id, false)
    else
      let ctx =
        { st; budget = ref refine_budget; autos = []; n_autos = 0;
          levels = Array.make (max n 1) [||] }
      in
      Array.blit st.initial 0 (level ctx 0) 0 n;
      match search ctx 0 [] st.initial_count with
      | _, order -> (order, true)
      | exception Fallback -> (Array.init n Fun.id, false)
  in
  let rendered = render st order in
  let ids = Array.map (fun p -> st.ids.(p)) order in
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

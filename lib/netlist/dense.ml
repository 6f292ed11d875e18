(* Compiled graph view: compact indices, flat adjacency arrays, Bytes
   bitsets.  The reference semantics are test/cut_oracle.ml's;
   test/test_dense.ml checks agreement property-by-property. *)

type set = Bytes.t

type t = {
  g : Graph.t;
  n : int;
  n_bytes : int;
  ids : int array;  (* index -> node id, increasing *)
  (* Edge e of node i's fanin lives at positions
     fanin_off.(i) .. fanin_off.(i+1) - 1 of the flat arrays; the
     parallel arrays give the source node's index and the edge's net id
     (one net id per source output port). *)
  fanin_off : int array;
  fanin_src : int array;
  fanin_net : int array;
  fanout_off : int array;
  fanout_dst : int array;
  fanout_net : int array;
  (* Query scratch: net_mark.(net) = gen / node_mark.(i) = gen marks
     "seen in the current query" without ever clearing the arrays;
     [stack] holds the convexity walk's frontier. *)
  net_mark : int array;
  node_mark : int array;
  stack : int array;
  mutable gen : int;
}

(* ------------------------------------------------------------------ *)
(* Bitsets *)

let mem s i = Char.code (Bytes.unsafe_get s (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add s i =
  let b = i lsr 3 in
  Bytes.unsafe_set s b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get s b) lor (1 lsl (i land 7))))

let remove s i =
  let b = i lsr 3 in
  Bytes.unsafe_set s b
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get s b) land lnot (1 lsl (i land 7)) land 0xff))

let popcount8 =
  Array.init 256 (fun b ->
      let rec go b = if b = 0 then 0 else (b land 1) + go (b lsr 1) in
      go b)

let cardinal s =
  let total = ref 0 in
  for b = 0 to Bytes.length s - 1 do
    total := !total + popcount8.(Char.code (Bytes.unsafe_get s b))
  done;
  !total

let iter_members s f =
  for b = 0 to Bytes.length s - 1 do
    let byte = Char.code (Bytes.unsafe_get s b) in
    if byte <> 0 then
      for bit = 0 to 7 do
        if byte land (1 lsl bit) <> 0 then f ((b lsl 3) lor bit)
      done
  done

(* ------------------------------------------------------------------ *)
(* Compilation *)

(* Position of [id] in the increasing array [ids], or -1. *)
let search ids id =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let c = Node_id.compare ids.(mid) id in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length ids)

let of_graph g =
  let ids = Array.of_list (Graph.node_ids g) in
  let n = Array.length ids in
  (* Output port p of node i is net net_base.(i) + p. *)
  let net_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    net_base.(i + 1) <-
      net_base.(i) + (Graph.descriptor g ids.(i)).Eblock.Descriptor.n_outputs
  done;
  (* No query depends on the order of a node's edges, so the unsorted
     adjacency lists will do.  The far end of an incoming edge is its
     driver; an outgoing edge is driven by the node itself. *)
  let flatten adjacency ~incoming =
    let lists = Array.map (adjacency g) ids in
    let off = Array.make (n + 1) 0 in
    Array.iteri (fun i l -> off.(i + 1) <- off.(i) + List.length l) lists;
    let far = Array.make off.(n) 0 and net = Array.make off.(n) 0 in
    Array.iteri
      (fun i l ->
        List.iteri
          (fun k (e : Graph.edge) ->
            let p = off.(i) + k in
            let j =
              search ids (if incoming then e.src.node else e.dst.node)
            in
            far.(p) <- j;
            net.(p) <- net_base.(if incoming then j else i) + e.src.port)
          l)
      lists;
    (off, far, net)
  in
  let fanin_off, fanin_src, fanin_net =
    flatten Graph.fanin_unordered ~incoming:true
  in
  let fanout_off, fanout_dst, fanout_net =
    flatten Graph.fanout_unordered ~incoming:false
  in
  {
    g;
    n;
    n_bytes = (n + 7) / 8;
    ids;
    fanin_off;
    fanin_src;
    fanin_net;
    fanout_off;
    fanout_dst;
    fanout_net;
    net_mark = Array.make net_base.(n) 0;
    node_mark = Array.make n 0;
    stack = Array.make n 0;
    gen = 0;
  }

let graph t = t.g
let length t = t.n
let index t id =
  match search t.ids id with -1 -> raise Not_found | i -> i
let node_id t i = t.ids.(i)

(* ------------------------------------------------------------------ *)
(* Adjacency *)

let in_degree t i = t.fanin_off.(i + 1) - t.fanin_off.(i)
let out_degree t i = t.fanout_off.(i + 1) - t.fanout_off.(i)

let iter_fanin t i f =
  for e = t.fanin_off.(i) to t.fanin_off.(i + 1) - 1 do
    f t.fanin_src.(e)
  done

let iter_fanout t i f =
  for e = t.fanout_off.(i) to t.fanout_off.(i + 1) - 1 do
    f t.fanout_dst.(e)
  done

(* Kahn's algorithm: a node's level is final once its last fanin edge
   is consumed, so the FIFO order of ready nodes does not matter. *)
let levels t =
  let level = Array.make t.n 0 in
  let pending = Array.init t.n (in_degree t) in
  let queue = Array.make t.n 0 and tail = ref 0 in
  for i = 0 to t.n - 1 do
    if pending.(i) = 0 then begin
      queue.(!tail) <- i;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    iter_fanout t i (fun j ->
        level.(j) <- max level.(j) (level.(i) + 1);
        pending.(j) <- pending.(j) - 1;
        if pending.(j) = 0 then begin
          queue.(!tail) <- j;
          incr tail
        end)
  done;
  if !tail < t.n then raise (Graph.Structural_error "graph contains a cycle");
  level

(* ------------------------------------------------------------------ *)
(* Set conversions *)

let empty_set t = Bytes.make t.n_bytes '\000'

let set_of_ids t ids =
  let s = empty_set t in
  Node_id.Set.iter (fun id -> add s (index t id)) ids;
  s

let ids_of_set t s =
  let acc = ref Node_id.Set.empty in
  iter_members s (fun i -> acc := Node_id.Set.add t.ids.(i) !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* Pin accounting *)

let pins_used t s =
  let ins = ref 0 and outs = ref 0 in
  iter_members s (fun i ->
      for e = t.fanin_off.(i) to t.fanin_off.(i + 1) - 1 do
        if not (mem s t.fanin_src.(e)) then incr ins
      done;
      for e = t.fanout_off.(i) to t.fanout_off.(i + 1) - 1 do
        if not (mem s t.fanout_dst.(e)) then incr outs
      done);
  (!ins, !outs)

(* The crossing edges themselves, in Graph.compare_edge order, read
   from the graph's adjacency lists: only plan building asks for them. *)
let crossing t s adjacency far_node =
  let acc = ref [] in
  iter_members s (fun i ->
      List.iter
        (fun e -> if not (mem s (index t (far_node e))) then acc := e :: !acc)
        (adjacency t.g t.ids.(i)));
  List.sort Graph.compare_edge !acc

let in_edges t s =
  crossing t s Graph.fanin_unordered (fun e -> e.Graph.src.node)

let out_edges t s =
  crossing t s Graph.fanout_unordered (fun e -> e.Graph.dst.node)

let removal_delta t s b =
  let d_in = ref 0 and d_out = ref 0 in
  for e = t.fanin_off.(b) to t.fanin_off.(b + 1) - 1 do
    if mem s t.fanin_src.(e) then incr d_out (* internal -> output pin *)
    else decr d_in (* this input pin disappears *)
  done;
  for e = t.fanout_off.(b) to t.fanout_off.(b + 1) - 1 do
    if mem s t.fanout_dst.(e) then incr d_in (* internal -> input pin *)
    else decr d_out (* this output pin disappears *)
  done;
  (!d_in, !d_out)

let addition_delta t s b =
  let d_in = ref 0 and d_out = ref 0 in
  for e = t.fanin_off.(b) to t.fanin_off.(b + 1) - 1 do
    if mem s t.fanin_src.(e) then decr d_out (* crossing edge internalised *)
    else incr d_in
  done;
  for e = t.fanout_off.(b) to t.fanout_off.(b + 1) - 1 do
    if mem s t.fanout_dst.(e) then decr d_in
    else incr d_out
  done;
  (!d_in, !d_out)

let fresh_gen t =
  t.gen <- t.gen + 1;
  t.gen

let inputs_used_nets t s =
  let gen = fresh_gen t in
  let nets = ref 0 in
  iter_members s (fun i ->
      for e = t.fanin_off.(i) to t.fanin_off.(i + 1) - 1 do
        if not (mem s t.fanin_src.(e)) then begin
          let net = t.fanin_net.(e) in
          if t.net_mark.(net) <> gen then begin
            t.net_mark.(net) <- gen;
            incr nets
          end
        end
      done);
  !nets

let outputs_used_nets t s =
  let gen = fresh_gen t in
  let nets = ref 0 in
  iter_members s (fun i ->
      for e = t.fanout_off.(i) to t.fanout_off.(i + 1) - 1 do
        if not (mem s t.fanout_dst.(e)) then begin
          let net = t.fanout_net.(e) in
          if t.net_mark.(net) <> gen then begin
            t.net_mark.(net) <- gen;
            incr nets
          end
        end
      done);
  !nets

(* ------------------------------------------------------------------ *)
(* Structure tests *)

(* Walk forward from the set's external successors while staying outside
   the set; convexity fails iff the walk re-enters it.  A node is marked
   when pushed, so each is pushed at most once: the stack never holds
   more than [n] entries and the walk ends on cyclic graphs too. *)
let is_convex t s =
  let gen = fresh_gen t in
  let top = ref 0 in
  let push j =
    if t.node_mark.(j) <> gen then begin
      t.node_mark.(j) <- gen;
      t.stack.(!top) <- j;
      incr top
    end
  in
  iter_members s (fun i ->
      for e = t.fanout_off.(i) to t.fanout_off.(i + 1) - 1 do
        let j = t.fanout_dst.(e) in
        if not (mem s j) then push j
      done);
  let convex = ref true in
  while !convex && !top > 0 do
    decr top;
    let j = t.stack.(!top) in
    for e = t.fanout_off.(j) to t.fanout_off.(j + 1) - 1 do
      let k = t.fanout_dst.(e) in
      if mem s k then convex := false else push k
    done
  done;
  !convex

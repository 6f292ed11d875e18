module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(* The counter block of one engine run: one row of counts per link
   counter and per node counter, each row indexed by dense edge or node.
   The engine sizes it at start ([bind]) and writes its cells directly;
   every reading below is a fold over the rows.  [l_sends] counts
   attempts (every packet the sender transmitted, struck or not);
   [l_deliveries] counts Deliver events actually consumed at the sink,
   so under duplication deliveries can exceed sends and under drops fall
   short. *)
type t = {
  timeline : bool;
  timeline_cap : int;
  mutable observed : bool;
  mutable edges : Graph.edge array;
  mutable dsts : int array;
  mutable ids : Node_id.t array;
  mutable links : int array array;
  mutable nodes : int array array;
  mutable latency : int array array;
  totals : int array;
  mutable run_hwm : int;
  mutable clock : int;
  mutable tl : int array;
  mutable tl_len : int;
  mutable tl_dropped : int;
}

let l_sends = 0
let l_deliveries = 1
let l_drops = 2
let l_duplicates = 3
let l_corruptions = 4
let l_jittered = 5
let l_dead = 6
let n_events = 0
let n_activations = 1
let n_resets = 2
let n_pending = 3
let n_hwm = 4
let k_resets = 5
let k_stuck = 6
let k_events = 7
let k_deliveries = 8
let k_packets = 9
let k_activations = 10
let k_settles = 11
let k_settle_iterations = 12
let n_totals = 13

let create ?(timeline = false) ?(timeline_cap = 200_000) () =
  {
    timeline;
    timeline_cap;
    observed = false;
    edges = [||];
    dsts = [||];
    ids = [||];
    links = Array.make 7 [||];
    nodes = Array.make 5 [||];
    latency = [||];
    totals = Array.make n_totals 0;
    run_hwm = 0;
    clock = 0;
    tl = [||];
    tl_len = 0;
    tl_dropped = 0;
  }

(* Zero every row to length [n], reusing the arrays that have it. *)
let zero rows n =
  Array.iteri
    (fun i a ->
      if Array.length a = n then Array.fill a 0 n 0
      else rows.(i) <- Array.make n 0)
    rows

let bind t ~edges ~dsts ~ids ~observe =
  let ne = Array.length edges in
  t.observed <- observe;
  t.edges <- edges;
  t.dsts <- dsts;
  t.ids <- ids;
  zero t.links ne;
  zero t.nodes (Array.length ids);
  if observe then begin
    if Array.length t.latency = ne then
      Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.latency
    else t.latency <- Array.make ne [||]
  end;
  Array.fill t.totals 0 n_totals 0;
  t.run_hwm <- 0;
  t.clock <- 0;
  t.tl_len <- 0;
  t.tl_dropped <- 0

(* The latency cells of dense edge [ei], grown to at least [n]: cell [d]
   counts the deliveries that took [d] ticks. *)
let latency_cells t ei n =
  let a = t.latency.(ei) in
  if n <= Array.length a then a
  else begin
    let b = Array.make n 0 in
    Array.blit a 0 b 0 (Array.length a);
    t.latency.(ei) <- b;
    b
  end

let count_latency t ei d =
  let a = latency_cells t ei (d + 1) in
  a.(d) <- a.(d) + 1

let timeline_push t ~time ~tag a =
  if t.tl_len >= t.timeline_cap then t.tl_dropped <- t.tl_dropped + 1
  else begin
    let i = 3 * t.tl_len in
    if i = Array.length t.tl then begin
      let tl = Array.make (max 48 (2 * i)) 0 in
      Array.blit t.tl 0 tl 0 i;
      t.tl <- tl
    end;
    t.tl.(i) <- time;
    t.tl.(i + 1) <- tag;
    t.tl.(i + 2) <- a;
    t.tl_len <- t.tl_len + 1
  end

let injected t =
  let c = t.totals in
  {
    Fault.drops = c.(0);
    duplicates = c.(1);
    corruptions = c.(2);
    jittered = c.(3);
    dead_link_losses = c.(4);
    resets = c.(5);
    stuck_overrides = c.(6);
  }

(* --- Readings -------------------------------------------------------- *)

type latency = {
  count : int;
  sum : int;
  mean : float;
  min : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type link_stats = {
  sends : int;
  deliveries : int;
  drops : int;
  duplicates : int;
  corruptions : int;
  jittered : int;
  dead_losses : int;
  latency : latency;
}

type node_stats = {
  events : int;
  packets_in : int;
  activations : int;
  resets : int;
  queue_hwm : int;
}

(* Exact readings of one edge's latency cells. *)
let latency_of cells =
  let count = Array.fold_left ( + ) 0 cells in
  let sum = ref 0 in
  Array.iteri (fun d n -> sum := !sum + (d * n)) cells;
  (* the latency of the delivery at [rank] in latency order *)
  let rec walk rank d seen =
    let seen = seen + cells.(d) in
    if seen >= rank then d else walk rank (d + 1) seen
  in
  let at rank = if count = 0 then 0 else walk rank 0 0 in
  (* the nearest rank, ceil (p * count / 100), at least 1 *)
  let percentile p = at (Int.max 1 (((p * count) + 99) / 100)) in
  {
    count;
    sum = !sum;
    mean = (if count = 0 then 0. else float_of_int !sum /. float_of_int count);
    min = at 1;
    p50 = percentile 50;
    p90 = percentile 90;
    p99 = percentile 99;
    max = at count;
  }

let link_stats t ei =
  let l row = t.links.(row).(ei) in
  {
    sends = l l_sends;
    deliveries = l l_deliveries;
    drops = l l_drops;
    duplicates = l l_duplicates;
    corruptions = l l_corruptions;
    jittered = l l_jittered;
    dead_losses = l l_dead;
    latency = latency_of t.latency.(ei);
  }

(* Deliveries consumed per dense node: the in-edges' delivery counts. *)
let packets_in t =
  let n = Array.make (Array.length t.ids) 0 in
  Array.iteri (fun ei d -> n.(d) <- n.(d) + t.links.(l_deliveries).(ei)) t.dsts;
  n

let node_stats t =
  let pin = packets_in t in
  fun ni ->
    let n row = t.nodes.(row).(ni) in
    {
      events = n n_events;
      packets_in = pin.(ni);
      activations = n n_activations;
      resets = n n_resets;
      queue_hwm = n n_hwm;
    }

(* Every link in {!Graph.compare_edge} order (dense edges run in fanout
   order within a port, not destination order) and every node in id
   order — none for a collector no run was armed with. *)
let link_rows t =
  if not t.observed then []
  else
    List.sort
      (fun (a, _) (b, _) -> Graph.compare_edge a b)
      (List.init (Array.length t.edges) (fun ei ->
           (t.edges.(ei), link_stats t ei)))

let node_rows t =
  if not t.observed then []
  else
    let stats = node_stats t in
    List.init (Array.length t.ids) (fun ni -> (t.ids.(ni), stats ni))

(* A link is touched once a packet entered it; a node once an event was
   scheduled for it. *)
let links t = List.filter (fun (_, s) -> s.sends > 0) (link_rows t)
let nodes t = List.filter (fun (_, s) -> s.queue_hwm > 0) (node_rows t)

let events t = t.totals.(k_events)
let settles t = t.totals.(k_settles)
let queue_hwm t = t.run_hwm
let clock t = t.clock
let timeline_events t = t.tl_len
let timeline_dropped t = t.tl_dropped

(* --- Aggregation ----------------------------------------------------- *)

(* Integer array sums, latency cells included (max for high-water marks
   and the clock), so the result is independent of merge order:
   per-trial blocks folded in any order agree bit-for-bit, which is what
   makes the --jobs N reports byte-identical. *)
let add ~into src =
  if src.observed then begin
    if not into.observed then
      bind into ~edges:src.edges ~dsts:src.dsts ~ids:src.ids ~observe:true
    else if Array.length into.edges <> Array.length src.edges
         || Array.length into.ids <> Array.length src.ids
    then invalid_arg "Telemetry.add: collectors of different networks";
    let combine f dst a = Array.iteri (fun i n -> dst.(i) <- f dst.(i) n) a in
    Array.iteri (fun row a -> combine ( + ) into.links.(row) a) src.links;
    Array.iteri
      (fun row a ->
        combine (if row = n_hwm then max else ( + )) into.nodes.(row) a)
      src.nodes;
    Array.iteri
      (fun ei a -> combine ( + ) (latency_cells into ei (Array.length a)) a)
      src.latency;
    into.run_hwm <- max into.run_hwm src.run_hwm;
    into.clock <- max into.clock src.clock;
    combine ( + ) into.totals src.totals;
    if into.timeline then begin
      for i = 0 to src.tl_len - 1 do
        timeline_push into ~time:src.tl.(3 * i) ~tag:src.tl.((3 * i) + 1)
          src.tl.((3 * i) + 2)
      done;
      into.tl_dropped <- into.tl_dropped + src.tl_dropped
    end
  end

(* --- Reports --------------------------------------------------------- *)

let schema_name = "paredown-netobs"
let schema_version = 1

let num n = Obs.Json.Num (float_of_int n)

let latency_json s =
  Obs.Json.Obj
    [
      ("count", num s.count);
      ("sum", num s.sum);
      ("mean", Obs.Json.Num s.mean);
      ("min", num s.min);
      ("p50", num s.p50);
      ("p90", num s.p90);
      ("p99", num s.p99);
      ("max", num s.max);
    ]

(* The count columns of both renderings: table header, JSON key,
   reading. *)
let link_columns =
  [ ("sends", "sends", fun s -> s.sends);
    ("dlvd", "deliveries", fun s -> s.deliveries);
    ("drop", "drops", fun s -> s.drops);
    ("dup", "duplicates", fun s -> s.duplicates);
    ("corr", "corruptions", fun s -> s.corruptions);
    ("jit", "jittered", fun s -> s.jittered);
    ("dead", "dead_losses", fun s -> s.dead_losses) ]

let node_columns =
  [ ("events", "events", fun s -> s.events);
    ("pkts in", "packets_in", fun s -> s.packets_in);
    ("acts", "activations", fun s -> s.activations);
    ("resets", "resets", fun s -> s.resets);
    ("q hwm", "queue_hwm", fun s -> s.queue_hwm) ]

let json_counts columns s =
  List.map (fun (_, key, read) -> (key, num (read s))) columns

let cells columns s =
  List.map (fun (_, _, read) -> string_of_int (read s)) columns
let headers columns = List.map (fun (header, _, _) -> header) columns

let report_json ?name ?(extra = []) g t =
  let node_json (id, s) =
    Obs.Json.Obj
      ([ ("id", num id);
         ("label", Obs.Json.Str (Graph.node g id).Graph.label);
         ("kind", Obs.Json.Str (Eblock.Kind.to_string (Graph.kind g id))) ]
      @ json_counts node_columns s)
  in
  let link_json (e, s) =
    Obs.Json.Obj
      ([ ("link", Obs.Json.Str (Graph.edge_to_string e));
         ("src", num e.Graph.src.Graph.node);
         ("dst", num e.Graph.dst.Graph.node) ]
      @ json_counts link_columns s
      @ [ ("latency_ticks", latency_json s.latency) ])
  in
  Obs.Json.Obj
    ([ ("schema", Obs.Json.Str schema_name); ("version", num schema_version) ]
    @ (match name with
      | Some n -> [ ("design", Obs.Json.Str n) ]
      | None -> [])
    @ extra
    @ [
        ("events", num (events t));
        ("settles", num (settles t));
        ("queue_hwm", num t.run_hwm);
        ("clock", num t.clock);
        ("nodes", Obs.Json.Arr (List.map node_json (node_rows t)));
        ("links", Obs.Json.Arr (List.map link_json (link_rows t)));
      ])

let tick d = Printf.sprintf "%.1f" (float_of_int d)

let utilization_table t =
  let row (e, s) =
    (Graph.edge_to_string e :: cells link_columns s)
    @ [ tick s.latency.p50; tick s.latency.p99 ]
  in
  Obs.Metrics.render_table
    ((("link" :: headers link_columns) @ [ "p50 tk"; "p99 tk" ])
    :: List.map row (link_rows t))

let node_table g t =
  let row (id, s) =
    string_of_int id :: (Graph.node g id).Graph.label :: cells node_columns s
  in
  Obs.Metrics.render_table
    (("node" :: "label" :: headers node_columns) :: List.map row (node_rows t))

(* Timeline entries carry the engine's event tag and index: a delivery
   names its dense edge, every other event its dense node. *)
let tag_deliver = 0
let tag_timer = 1
let tag_sensor = 2

let write_timeline g t path =
  let lanes =
    List.map
      (fun id ->
        {
          Obs.Chrome.ph = Thread_name;
          name = Printf.sprintf "%d %s" id (Graph.node g id).Graph.label;
          tid = id;
          ts_us = 0.;
          args = [];
        })
      (Graph.node_ids g)
  in
  let instant i =
    let tag = t.tl.((3 * i) + 1) and a = t.tl.((3 * i) + 2) in
    let name, tid =
      if tag = tag_deliver then
        let e = t.edges.(a) in
        ("deliver " ^ Graph.edge_to_string e, e.Graph.dst.Graph.node)
      else
        ( (if tag = tag_timer then "timer"
           else if tag = tag_sensor then "sensor"
           else "reset"),
          t.ids.(a) )
    in
    {
      Obs.Chrome.ph = Instant;
      name;
      tid;
      ts_us = float_of_int t.tl.(3 * i);
      args = [];
    }
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Obs.Chrome.to_string (lanes @ List.init t.tl_len instant)))

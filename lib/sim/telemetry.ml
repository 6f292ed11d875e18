module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(* Per-link accounting.  [l_sends] counts attempts (every packet the
   sender transmitted, struck or not); [l_deliveries] counts Deliver
   events actually consumed at the sink, so under duplication
   deliveries can exceed sends and under drops fall short. *)
type link = {
  mutable l_sends : int;
  mutable l_deliveries : int;
  mutable l_drops : int;
  mutable l_duplicates : int;
  mutable l_corruptions : int;
  mutable l_jittered : int;
  mutable l_dead_losses : int;
  mutable l_latency : Obs.Histogram.t;  (* scheduled send->deliver ticks *)
}

type node = {
  mutable n_events : int;  (* settle iterations spent on this node *)
  mutable n_deliveries : int;
  mutable n_activations : int;
  mutable n_resets : int;
  mutable n_pending : int;  (* events currently queued for the node *)
  mutable n_queue_hwm : int;
}

type event_kind =
  | Delivered of Graph.edge
  | Timer_fired
  | Sensor_set
  | Reset

type tl_entry = { tl_time : int; tl_node : Node_id.t; tl_kind : event_kind }

type t = {
  links : (Graph.edge, link) Hashtbl.t;
  nodes : (Node_id.t, node) Hashtbl.t;
  mutable t_events : int;
  mutable t_settles : int;
  mutable t_pending : int;
  mutable t_queue_hwm : int;
  mutable t_clock : int;
  mutable timeline : tl_entry list option;  (* newest first *)
  mutable timeline_len : int;
  timeline_cap : int;
  mutable timeline_dropped : int;
}

let create ?(timeline = false) ?(timeline_cap = 200_000) () =
  {
    links = Hashtbl.create 16;
    nodes = Hashtbl.create 16;
    t_events = 0;
    t_settles = 0;
    t_pending = 0;
    t_queue_hwm = 0;
    t_clock = 0;
    timeline = (if timeline then Some [] else None);
    timeline_len = 0;
    timeline_cap;
    timeline_dropped = 0;
  }

let fresh_link () =
  {
    l_sends = 0;
    l_deliveries = 0;
    l_drops = 0;
    l_duplicates = 0;
    l_corruptions = 0;
    l_jittered = 0;
    l_dead_losses = 0;
    l_latency = Obs.Histogram.create ();
  }

let fresh_node () =
  {
    n_events = 0;
    n_deliveries = 0;
    n_activations = 0;
    n_resets = 0;
    n_pending = 0;
    n_queue_hwm = 0;
  }

let link_of t e =
  match Hashtbl.find_opt t.links e with
  | Some l -> l
  | None ->
    let l = fresh_link () in
    Hashtbl.add t.links e l;
    l

let node_of t id =
  match Hashtbl.find_opt t.nodes id with
  | Some n -> n
  | None ->
    let n = fresh_node () in
    Hashtbl.add t.nodes id n;
    n

(* --- Engine hooks ---------------------------------------------------- *)

let note_scheduled t id =
  let n = node_of t id in
  n.n_pending <- n.n_pending + 1;
  if n.n_pending > n.n_queue_hwm then n.n_queue_hwm <- n.n_pending;
  t.t_pending <- t.t_pending + 1;
  if t.t_pending > t.t_queue_hwm then t.t_queue_hwm <- t.t_pending

let note_event t ~time id kind =
  t.t_events <- t.t_events + 1;
  if time > t.t_clock then t.t_clock <- time;
  t.t_pending <- t.t_pending - 1;
  let n = node_of t id in
  n.n_events <- n.n_events + 1;
  n.n_pending <- n.n_pending - 1;
  (match kind with
   | Delivered e ->
     n.n_deliveries <- n.n_deliveries + 1;
     let l = link_of t e in
     l.l_deliveries <- l.l_deliveries + 1
   | Reset -> n.n_resets <- n.n_resets + 1
   | Timer_fired | Sensor_set -> ());
  match t.timeline with
  | None -> ()
  | Some entries ->
    if t.timeline_len >= t.timeline_cap then
      t.timeline_dropped <- t.timeline_dropped + 1
    else begin
      t.timeline <-
        Some ({ tl_time = time; tl_node = id; tl_kind = kind } :: entries);
      t.timeline_len <- t.timeline_len + 1
    end

let note_activation t id =
  let n = node_of t id in
  n.n_activations <- n.n_activations + 1

let note_send t e ~strike ~latencies =
  let l = link_of t e in
  l.l_sends <- l.l_sends + 1;
  if strike.Fault.s_dropped then l.l_drops <- l.l_drops + 1;
  if strike.Fault.s_duplicated then l.l_duplicates <- l.l_duplicates + 1;
  if strike.Fault.s_corrupted then l.l_corruptions <- l.l_corruptions + 1;
  l.l_jittered <- l.l_jittered + strike.Fault.s_jittered;
  if strike.Fault.s_dead then l.l_dead_losses <- l.l_dead_losses + 1;
  List.iter (fun d -> Obs.Histogram.observe_int l.l_latency d) latencies

let note_settle t = t.t_settles <- t.t_settles + 1

(* --- Readings -------------------------------------------------------- *)

type link_stats = {
  sends : int;
  deliveries : int;
  drops : int;
  duplicates : int;
  corruptions : int;
  jittered : int;
  dead_losses : int;
  latency : Obs.Histogram.summary;
}

type node_stats = {
  events : int;
  packets_in : int;
  activations : int;
  resets : int;
  queue_hwm : int;
}

let link_stats_of l =
  {
    sends = l.l_sends;
    deliveries = l.l_deliveries;
    drops = l.l_drops;
    duplicates = l.l_duplicates;
    corruptions = l.l_corruptions;
    jittered = l.l_jittered;
    dead_losses = l.l_dead_losses;
    latency = Obs.Histogram.summary l.l_latency;
  }

let node_stats_of n =
  {
    events = n.n_events;
    packets_in = n.n_deliveries;
    activations = n.n_activations;
    resets = n.n_resets;
    queue_hwm = n.n_queue_hwm;
  }

let zero_link_stats = link_stats_of (fresh_link ())
let zero_node_stats = node_stats_of (fresh_node ())

let links t =
  Hashtbl.fold (fun e l acc -> (e, link_stats_of l) :: acc) t.links []
  |> List.sort (fun (a, _) (b, _) -> Graph.compare_edge a b)

let nodes t =
  Hashtbl.fold (fun id n acc -> (id, node_stats_of n) :: acc) t.nodes []
  |> List.sort (fun (a, _) (b, _) -> Node_id.compare a b)

let events t = t.t_events
let settles t = t.t_settles
let queue_hwm t = t.t_queue_hwm
let clock t = t.t_clock
let timeline_events t = t.timeline_len
let timeline_dropped t = t.timeline_dropped

(* --- Aggregation ----------------------------------------------------- *)

(* Field-wise sums (max for high-water marks and the clock), histogram
   buckets merged exactly.  Every float involved is a sum of small
   integers, so the result is independent of merge order — per-trial
   collectors folded in any order agree bit-for-bit, which is what makes
   the --jobs N reports byte-identical.  Timelines do not merge: a
   merged collector has none. *)
let merge a b =
  let m = create () in
  let add_links t =
    Hashtbl.iter
      (fun e l ->
        let dst = link_of m e in
        dst.l_sends <- dst.l_sends + l.l_sends;
        dst.l_deliveries <- dst.l_deliveries + l.l_deliveries;
        dst.l_drops <- dst.l_drops + l.l_drops;
        dst.l_duplicates <- dst.l_duplicates + l.l_duplicates;
        dst.l_corruptions <- dst.l_corruptions + l.l_corruptions;
        dst.l_jittered <- dst.l_jittered + l.l_jittered;
        dst.l_dead_losses <- dst.l_dead_losses + l.l_dead_losses;
        dst.l_latency <- Obs.Histogram.merge dst.l_latency l.l_latency)
      t.links
  in
  let add_nodes t =
    Hashtbl.iter
      (fun id n ->
        let dst = node_of m id in
        dst.n_events <- dst.n_events + n.n_events;
        dst.n_deliveries <- dst.n_deliveries + n.n_deliveries;
        dst.n_activations <- dst.n_activations + n.n_activations;
        dst.n_resets <- dst.n_resets + n.n_resets;
        dst.n_queue_hwm <- max dst.n_queue_hwm n.n_queue_hwm)
      t.nodes
  in
  add_links a;
  add_links b;
  add_nodes a;
  add_nodes b;
  m.t_events <- a.t_events + b.t_events;
  m.t_settles <- a.t_settles + b.t_settles;
  m.t_queue_hwm <- max a.t_queue_hwm b.t_queue_hwm;
  m.t_clock <- max a.t_clock b.t_clock;
  m

(* --- Reports --------------------------------------------------------- *)

let schema_name = "paredown-netobs"
let schema_version = 1

let num n = Obs.Json.Num (float_of_int n)

let summary_json (s : Obs.Histogram.summary) =
  Obs.Json.Obj
    [
      ("count", num s.Obs.Histogram.s_count);
      ("sum", Obs.Json.Num s.s_sum);
      ("mean", Obs.Json.Num s.s_mean);
      ("min", Obs.Json.Num s.s_min);
      ("p50", Obs.Json.Num s.s_p50);
      ("p90", Obs.Json.Num s.s_p90);
      ("p99", Obs.Json.Num s.s_p99);
      ("max", Obs.Json.Num s.s_max);
    ]

(* Rows cover every node and every edge of [g] — including untouched
   ones — in id / compare_edge order, so two reports over the same
   graph are positionally comparable and the rendering never depends on
   hash-table iteration order. *)
let node_rows g t =
  List.map
    (fun id ->
      let stats =
        match Hashtbl.find_opt t.nodes id with
        | Some n -> node_stats_of n
        | None -> zero_node_stats
      in
      (id, stats))
    (Graph.node_ids g)

let link_rows g t =
  List.map
    (fun e ->
      let stats =
        match Hashtbl.find_opt t.links e with
        | Some l -> link_stats_of l
        | None -> zero_link_stats
      in
      (e, stats))
    (List.sort Graph.compare_edge (Graph.edges g))

let report_json ?name ?(extra = []) g t =
  let node_json (id, (s : node_stats)) =
    Obs.Json.Obj
      [
        ("id", num id);
        ("label", Obs.Json.Str (Graph.node g id).Graph.label);
        ("kind", Obs.Json.Str (Eblock.Kind.to_string (Graph.kind g id)));
        ("events", num s.events);
        ("packets_in", num s.packets_in);
        ("activations", num s.activations);
        ("resets", num s.resets);
        ("queue_hwm", num s.queue_hwm);
      ]
  in
  let link_json (e, (s : link_stats)) =
    Obs.Json.Obj
      [
        ("link", Obs.Json.Str (Graph.edge_to_string e));
        ("src", num e.Graph.src.Graph.node);
        ("dst", num e.Graph.dst.Graph.node);
        ("sends", num s.sends);
        ("deliveries", num s.deliveries);
        ("drops", num s.drops);
        ("duplicates", num s.duplicates);
        ("corruptions", num s.corruptions);
        ("jittered", num s.jittered);
        ("dead_losses", num s.dead_losses);
        ("latency_ticks", summary_json s.latency);
      ]
  in
  Obs.Json.Obj
    ([ ("schema", Obs.Json.Str schema_name); ("version", num schema_version) ]
    @ (match name with
      | Some n -> [ ("design", Obs.Json.Str n) ]
      | None -> [])
    @ extra
    @ [
        ("events", num t.t_events);
        ("settles", num t.t_settles);
        ("queue_hwm", num t.t_queue_hwm);
        ("clock", num t.t_clock);
        ("nodes", Obs.Json.Arr (List.map node_json (node_rows g t)));
        ("links", Obs.Json.Arr (List.map link_json (link_rows g t)));
      ])

let tick s = Printf.sprintf "%.1f" s

let utilization_table g t =
  let header =
    [ "link"; "sends"; "dlvd"; "drop"; "dup"; "corr"; "jit"; "dead";
      "p50 tk"; "p99 tk" ]
  in
  let row (e, (s : link_stats)) =
    [
      Graph.edge_to_string e;
      string_of_int s.sends;
      string_of_int s.deliveries;
      string_of_int s.drops;
      string_of_int s.duplicates;
      string_of_int s.corruptions;
      string_of_int s.jittered;
      string_of_int s.dead_losses;
      tick s.latency.Obs.Histogram.s_p50;
      tick s.latency.Obs.Histogram.s_p99;
    ]
  in
  Obs.Metrics.render_table (header :: List.map row (link_rows g t))

let node_table g t =
  let header =
    [ "node"; "label"; "events"; "pkts in"; "acts"; "resets"; "q hwm" ]
  in
  let row (id, (s : node_stats)) =
    [
      string_of_int id;
      (Graph.node g id).Graph.label;
      string_of_int s.events;
      string_of_int s.packets_in;
      string_of_int s.activations;
      string_of_int s.resets;
      string_of_int s.queue_hwm;
    ]
  in
  Obs.Metrics.render_table (header :: List.map row (node_rows g t))

let kind_label = function
  | Delivered e -> "deliver " ^ Graph.edge_to_string e
  | Timer_fired -> "timer"
  | Sensor_set -> "sensor"
  | Reset -> "reset"

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
  let instants =
    match t.timeline with
    | None -> []
    | Some entries ->
      List.rev_map
        (fun { tl_time; tl_node; tl_kind } ->
          {
            Obs.Chrome.ph = Instant;
            name = kind_label tl_kind;
            tid = tl_node;
            ts_us = float_of_int tl_time;
            args = [];
          })
        entries
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Obs.Chrome.to_string (lanes @ instants)))

(* The interpreted simulation kernel that shipped beside the compiled
   one in Sim.Engine, kept verbatim as a differential oracle: behaviours
   run through the tree-walking Eval_oracle on every activation, and
   events are ordered by a functional map.  The public functions at the
   bottom are the interpreter's branches of the engine API it was
   selected through.  It bumps the same sim.* metrics (registration is
   by name) and raises the real Sim.Engine.Event_limit_exceeded and
   Behavior.Compile.Runtime_error, so test_kernel.ml can hold every
   observable of Sim.Engine against it, error surfaces included. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Fault = struct
    include Sim.Fault

    (* The fault runtime Sim.Fault carried before the engine resolved
       plans into dense arrays and drew faults inline, kept verbatim: a
       Hashtbl of per-edge overrides, a strike record and a delivery list
       per send, every strike counted in its stats record and its
       sim.fault.* counter (shared with the engine's by name). *)

  (* Global counters complementing the per-run {!stats}: visible in
     --metrics output alongside the other sim.* work counters. *)
  let m_drops = Obs.Metrics.counter "sim.fault.drops" ~doc:"packets dropped"
  let m_duplicates =
    Obs.Metrics.counter "sim.fault.duplicates" ~doc:"packets duplicated"
  let m_corruptions =
    Obs.Metrics.counter "sim.fault.corruptions" ~doc:"packet values corrupted"
  let m_jittered =
    Obs.Metrics.counter "sim.fault.jittered" ~doc:"deliveries jitter-delayed"
  let m_dead =
    Obs.Metrics.counter "sim.fault.dead_link_losses"
      ~doc:"packets lost on a dead link"
  let m_resets =
    Obs.Metrics.counter "sim.fault.resets" ~doc:"spurious block resets"
  let m_stuck =
    Obs.Metrics.counter "sim.fault.stuck_overrides"
      ~doc:"output presentations overridden by stuck-at"

  type runtime = {
    rng : Prng.t;
    default_edge : edge_fault;
    overrides : (Graph.edge, edge_fault) Hashtbl.t;
    stuck_tbl : (Node_id.t, stuck list) Hashtbl.t;
    mutable stats : stats;
  }

  let start p =
    let overrides = Hashtbl.create (List.length p.edge_overrides) in
    List.iter (fun (e, f) -> Hashtbl.replace overrides e f) p.edge_overrides;
    let stuck_tbl = Hashtbl.create (List.length p.node_faults) in
    List.iter
      (fun (id, f) -> if f.stuck <> [] then Hashtbl.replace stuck_tbl id f.stuck)
      p.node_faults;
    {
      rng = Prng.create p.seed;
      default_edge = p.default_edge;
      overrides;
      stuck_tbl;
      stats = zero;
    }

  let fault_for rt e =
    match Hashtbl.find_opt rt.overrides e with
    | Some f -> f
    | None -> rt.default_edge

  (* Each decision draws from the stream only when its probability is
     nonzero, so a faultless edge costs no draws and the empty plan
     perturbs nothing. *)
  let strikes rt p = p > 0. && Prng.float rt.rng 1.0 < p

  let corrupt_value rt = function
    | Behavior.Ast.Bool b -> Behavior.Ast.Bool (not b)
    | Behavior.Ast.Int n -> Behavior.Ast.Int (n lxor (1 lsl Prng.int rt.rng 8))

  let jitter_draw rt f =
    if f.jitter <= 0 then 0
    else begin
      let extra = Prng.int rt.rng (f.jitter + 1) in
      if extra > 0 then begin
        rt.stats <- { rt.stats with jittered = rt.stats.jittered + 1 };
        Obs.Metrics.incr m_jittered
      end;
      extra
    end

  type strike = {
    s_dropped : bool;
    s_duplicated : bool;
    s_corrupted : bool;
    s_jittered : int;
    s_dead : bool;
  }

  let no_strike =
    {
      s_dropped = false;
      s_duplicated = false;
      s_corrupted = false;
      s_jittered = 0;
      s_dead = false;
    }

  let strike_total s =
    Bool.to_int s.s_dropped + Bool.to_int s.s_duplicated
    + Bool.to_int s.s_corrupted + s.s_jittered + Bool.to_int s.s_dead

  let on_send rt ~time e v =
    let f = fault_for rt e in
    let dead = match f.dies_at with Some t -> time >= t | None -> false in
    if dead then begin
      rt.stats <-
        { rt.stats with dead_link_losses = rt.stats.dead_link_losses + 1 };
      Obs.Metrics.incr m_dead;
      ([], { no_strike with s_dead = true })
    end
    else if strikes rt f.drop then begin
      rt.stats <- { rt.stats with drops = rt.stats.drops + 1 };
      Obs.Metrics.incr m_drops;
      ([], { no_strike with s_dropped = true })
    end
    else begin
      let corrupted = strikes rt f.corrupt in
      let v =
        if corrupted then begin
          rt.stats <- { rt.stats with corruptions = rt.stats.corruptions + 1 };
          Obs.Metrics.incr m_corruptions;
          corrupt_value rt v
        end
        else v
      in
      (* Draw order matters for replay: first jitter, then the duplicate
         decision, then the duplicate's jitter — exactly as before the
         strike record existed. *)
      let j1 = jitter_draw rt f in
      if strikes rt f.duplicate then begin
        rt.stats <- { rt.stats with duplicates = rt.stats.duplicates + 1 };
        Obs.Metrics.incr m_duplicates;
        let j2 = jitter_draw rt f in
        ( [ (j1, v); (j2, v) ],
          {
            no_strike with
            s_duplicated = true;
            s_corrupted = corrupted;
            s_jittered = Bool.to_int (j1 > 0) + Bool.to_int (j2 > 0);
          } )
      end
      else
        ( [ (j1, v) ],
          {
            no_strike with
            s_corrupted = corrupted;
            s_jittered = Bool.to_int (j1 > 0);
          } )
    end

  let stuck_value rt ~time id ~port v =
    match Hashtbl.find_opt rt.stuck_tbl id with
    | None -> v
    | Some stucks ->
      (match
         List.find_opt (fun s -> s.port = port && time >= s.from) stucks
       with
       | None -> v
       | Some s ->
         if not (Behavior.Ast.equal_value s.value v) then begin
           rt.stats <-
             { rt.stats with stuck_overrides = rt.stats.stuck_overrides + 1 };
           Obs.Metrics.incr m_stuck
         end;
         s.value)

  let note_reset rt =
    rt.stats <- { rt.stats with resets = rt.stats.resets + 1 };
    Obs.Metrics.incr m_resets

  let stats rt = rt.stats
end

module Telemetry = struct
  (* The Hashtbl collector Sim.Telemetry was before the engine counted
     into dense arrays, kept verbatim: five note_* hooks the kernel
     calls, per-link and per-node records keyed by edge and node id. *)

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
end

let m_events =
  Obs.Metrics.counter "sim.events_processed" ~doc:"queue events dispatched"
let m_activations =
  Obs.Metrics.counter "sim.activations" ~doc:"block behaviour evaluations"
let m_packets =
  Obs.Metrics.counter "sim.packets_sent"
    ~doc:"packets sent on output change (the power proxy)"
let m_deliveries =
  Obs.Metrics.counter "sim.packets_delivered" ~doc:"Deliver events consumed"
let m_settles =
  Obs.Metrics.counter "sim.settles" ~doc:"settle calls completed"
let m_settle_iterations =
  Obs.Metrics.counter "sim.settle_iterations"
    ~doc:"events drained across all settles"

type value = Behavior.Ast.value

type tie_order = Sim.Engine.tie_order =
  | Fifo
  | Lifo
  | Shuffled of int

let wire_delay = Sim.Engine.wire_delay

let dummy_value = Behavior.Ast.Bool false

(* ------------------------------------------------------------------ *)
(* Output trace: a growable flat buffer instead of a cons list, so
   recording a change is three array writes and [trace] builds its
   chronological list directly (no O(n) reverse of a newest-first
   list). *)

module Tbuf = struct
  type t = {
    mutable times : int array;
    mutable nodes : Node_id.t array;
    mutable vals : value array;
    mutable len : int;
  }

  let create () =
    {
      times = Array.make 16 0;
      nodes = Array.make 16 0;
      vals = Array.make 16 dummy_value;
      len = 0;
    }

  let push b ~time node v =
    let cap = Array.length b.times in
    if b.len = cap then begin
      let ncap = 2 * cap in
      let grow a zero =
        let a' = Array.make ncap zero in
        Array.blit a 0 a' 0 cap;
        a'
      in
      b.times <- grow b.times 0;
      b.nodes <- grow b.nodes 0;
      b.vals <- grow b.vals dummy_value
    end;
    b.times.(b.len) <- time;
    b.nodes.(b.len) <- node;
    b.vals.(b.len) <- v;
    b.len <- b.len + 1

  let to_list b =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) ((b.times.(i), b.nodes.(i), b.vals.(i)) :: acc)
    in
    go (b.len - 1) []
end

(* ================================================================== *)
(* Interpreted kernel — the oracle.  Walks [Behavior.Ast] through
   [Eval_oracle] on every activation and orders events with a
   functional map; kept verbatim-simple so the compiled kernel below
   can be property-tested byte-identical against it. *)

type runtime = {
  mutable env : Eval_oracle.env;
      (* replaced wholesale on a spurious reset (fault injection) *)
  input_latch : value array;
  output_latch : value array;
  timer_gen : int array;
      (* per timer index: generation of the latest arming; expiry events
         from superseded generations are ignored.  Sized from the
         behaviour's largest timer index, so the common timer-free block
         carries the shared zero-length array and pays nothing. *)
}

type event =
  | Deliver of Graph.edge * value
  | Timer_expiry of Node_id.t * int * int  (* node, timer index, generation *)
  | Sensor_change of Node_id.t * bool
  | Fault_reset of Node_id.t  (* spurious reset from the fault plan *)

module Queue_key = struct
  type t = int * int * int  (* time, priority, unique counter *)

  let compare = compare
end

module Event_queue = Map.Make (Queue_key)

type interp = {
  graph : Graph.t;
  states : runtime Node_id.Map.t;
  i_tie_order : tie_order;
  i_tie_rng : Prng.t option;
  i_edge_delay : Graph.edge -> int;
  i_faults : Fault.runtime option;
      (* None when no plan was armed: the zero-cost path *)
  i_telemetry : Telemetry.t option;
      (* same pattern: None means every hook below is one branch *)
  mutable queue : event Event_queue.t;
  mutable depth : int;  (* cardinality of [queue], maintained in O(1) *)
  mutable i_seq : int;
  mutable i_clock : int;
  mutable i_activations : int;
  mutable i_packets : int;
  mutable i_last_active : Node_id.t option;
  i_trace : Tbuf.t;
}

let runtime_of_node g id =
  let d = Graph.descriptor g id in
  let open Eblock.Descriptor in
  let input_latch =
    Array.init d.n_inputs (fun port ->
        match Graph.driver g id port with
        | Some src ->
          let src_desc = Graph.descriptor g src.Graph.node in
          src_desc.output_init.(src.Graph.port)
        | None -> Behavior.Ast.Bool false)
  in
  let n_timers = Behavior.Ast.max_timer_index d.behavior + 1 in
  {
    env = Eval_oracle.init d.behavior;
    input_latch;
    output_latch = Array.copy d.output_init;
    timer_gen = (if n_timers = 0 then [||] else Array.make n_timers 0);
  }

let istate t id =
  match Node_id.Map.find_opt id t.states with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" id)

let event_node = function
  | Deliver (e, _) -> e.Graph.dst.Graph.node
  | Timer_expiry (id, _, _) | Sensor_change (id, _) | Fault_reset id -> id

let ischedule t ~time event =
  (* The priority orders same-time events: scheduling order for Fifo,
     reversed for Lifo, seeded-random for Shuffled.  Perturbing it changes
     exactly the packet races whose outcome the network does not actually
     define (see {!tie_order}). *)
  (match t.i_telemetry with
   | None -> ()
   | Some tel -> Telemetry.note_scheduled tel (event_node event));
  t.i_seq <- t.i_seq + 1;
  let priority =
    match t.i_tie_order, t.i_tie_rng with
    | Fifo, _ | (Lifo | Shuffled _), None -> t.i_seq
    | Lifo, _ -> -t.i_seq
    | Shuffled _, Some rng -> Prng.int rng 1_000_000_000
  in
  t.queue <- Event_queue.add (time, priority, t.i_seq) event t.queue;
  t.depth <- t.depth + 1

let current_gen rt timer = rt.timer_gen.(timer)

let bump_gen rt timer =
  let gen = rt.timer_gen.(timer) + 1 in
  rt.timer_gen.(timer) <- gen;
  gen

let icreate ?(tie_order = Fifo) ?(edge_delay = fun _ -> wire_delay) ?faults
    ?telemetry g =
  let order = Graph.topological_order g in
  let states =
    List.fold_left
      (fun acc id -> Node_id.Map.add id (runtime_of_node g id) acc)
      Node_id.Map.empty (Graph.node_ids g)
  in
  let tie_rng =
    match tie_order with
    | Shuffled seed -> Some (Prng.create seed)
    | Fifo | Lifo -> None
  in
  let t = {
    graph = g;
    states;
    i_tie_order = tie_order;
    i_tie_rng = tie_rng;
    i_edge_delay = edge_delay;
    i_faults = Option.map Fault.start faults;
    i_telemetry = telemetry;
    queue = Event_queue.empty;
    depth = 0;
    i_seq = 0;
    i_clock = 0;
    i_activations = 0;
    i_packets = 0;
    i_last_active = None;
    i_trace = Tbuf.create ();
  }
  in
  (* Power-on sweep: each block evaluates once so that every output is
     consistent with the power-on inputs (physical blocks announce their
     state at power-on).  Performed latch-to-latch in topological order,
     with no packets and no clock advance; timer requests (e.g. a delay
     block whose power-on input differs from its reset state) become
     ordinary timer events counted from time 0. *)
  let init_node id =
    let d = Graph.descriptor g id in
    match d.Eblock.Descriptor.kind with
    | Eblock.Kind.Sensor | Eblock.Kind.Output -> ()
    | Eblock.Kind.Compute | Eblock.Kind.Comm | Eblock.Kind.Programmable ->
      let rt = Node_id.Map.find id states in
      let act =
        { Eval_oracle.inputs = Array.copy rt.input_latch; fired = None }
      in
      let outcome =
        Eval_oracle.activate d.Eblock.Descriptor.behavior
          ~n_outputs:d.Eblock.Descriptor.n_outputs rt.env act
      in
      Array.iteri
        (fun port slot ->
          match slot with
          | Some v ->
            rt.output_latch.(port) <- v;
            Graph.iter_fanout_on g id port
              (fun e ->
                let dst_rt = Node_id.Map.find e.Graph.dst.Graph.node states in
                dst_rt.input_latch.(e.Graph.dst.Graph.port) <- v)
          | None -> ())
        outcome.Eval_oracle.outputs;
      List.iter
        (fun (timer, action) ->
          match action with
          | Eval_oracle.Timer_set delay ->
            let gen = bump_gen rt timer in
            ischedule t ~time:delay (Timer_expiry (id, timer, gen))
          | Eval_oracle.Timer_cancelled -> ignore (bump_gen rt timer))
        outcome.Eval_oracle.timers
  in
  List.iter init_node order;
  (* Spurious resets are plan-scheduled events like any other; an empty
     plan schedules none and the queue stays untouched. *)
  Option.iter
    (fun plan ->
      List.iter
        (fun (id, time) ->
          if Graph.mem g id then ischedule t ~time (Fault_reset id))
        (Fault.resets plan))
    faults;
  t


(* Present [v] on output [port] of [id]; on change, send a packet down
   every connection of that port. *)
let ipresent t ~time id port v =
  let rt = istate t id in
  (* A stuck-at output fault overrides the value before change
     detection: downstream never sees anything else on that port. *)
  let v =
    match t.i_faults with
    | None -> v
    | Some frt -> Fault.stuck_value frt ~time id ~port v
  in
  if not (Behavior.Ast.equal_value rt.output_latch.(port) v) then begin
    rt.output_latch.(port) <- v;
    Graph.iter_fanout_on t.graph id port
      (fun e ->
        t.i_packets <- t.i_packets + 1;
        Obs.Metrics.incr m_packets;
        let deliveries, strike =
          match t.i_faults with
          | None -> ([ (0, v) ], Fault.no_strike)
          | Some frt -> Fault.on_send frt ~time e v
        in
        (match t.i_telemetry with
         | None -> ()
         | Some tel ->
           let base = max 1 (t.i_edge_delay e) in
           Telemetry.note_send tel e ~strike
             ~latencies:(List.map (fun (extra, _) -> base + extra)
                           deliveries));
        List.iter
          (fun (extra, v') ->
            ischedule t
              ~time:(time + max 1 (t.i_edge_delay e) + extra)
              (Deliver (e, v')))
          deliveries)
  end

let iactivate t ~time id ~fired =
  let d = Graph.descriptor t.graph id in
  let rt = istate t id in
  t.i_activations <- t.i_activations + 1;
  Obs.Metrics.incr m_activations;
  (match t.i_telemetry with
   | None -> ()
   | Some tel -> Telemetry.note_activation tel id);
  let act =
    { Eval_oracle.inputs = Array.copy rt.input_latch; fired }
  in
  let outcome =
    Eval_oracle.activate d.Eblock.Descriptor.behavior
      ~n_outputs:d.Eblock.Descriptor.n_outputs rt.env act
  in
  Array.iteri
    (fun port slot ->
      match slot with
      | Some v -> ipresent t ~time id port v
      | None -> ())
    outcome.Eval_oracle.outputs;
  List.iter
    (fun (timer, action) ->
      match action with
      | Eval_oracle.Timer_set delay ->
        let gen = bump_gen rt timer in
        ischedule t ~time:(time + delay) (Timer_expiry (id, timer, gen))
      | Eval_oracle.Timer_cancelled -> ignore (bump_gen rt timer))
    outcome.Eval_oracle.timers

let iprocess t ~time event =
  t.i_clock <- max t.i_clock time;
  t.i_last_active <- Some (event_node event);
  Obs.Metrics.incr m_events;
  (match t.i_telemetry with
   | None -> ()
   | Some tel ->
     let kind =
       match event with
       | Deliver (e, _) -> Telemetry.Delivered e
       | Timer_expiry _ -> Telemetry.Timer_fired
       | Sensor_change _ -> Telemetry.Sensor_set
       | Fault_reset _ -> Telemetry.Reset
     in
     Telemetry.note_event tel ~time (event_node event) kind);
  match event with
  | Deliver (e, v) ->
    Obs.Metrics.incr m_deliveries;
    let dst = e.Graph.dst.Graph.node in
    let rt = istate t dst in
    let port = e.Graph.dst.Graph.port in
    let changed = not (Behavior.Ast.equal_value rt.input_latch.(port) v) in
    rt.input_latch.(port) <- v;
    (match Graph.kind t.graph dst with
     | Eblock.Kind.Output ->
       if changed then Tbuf.push t.i_trace ~time dst v
     | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
     | Eblock.Kind.Programmable -> iactivate t ~time dst ~fired:None)
  | Timer_expiry (id, timer, gen) ->
    let rt = istate t id in
    if current_gen rt timer = gen then iactivate t ~time id ~fired:(Some timer)
  | Sensor_change (id, b) -> ipresent t ~time id 0 (Behavior.Ast.Bool b)
  | Fault_reset id ->
    (* Brownout: the block loses its volatile state — variable store and
       pending timers — and its outputs snap back to power-on values,
       announced downstream like a power-on.  Latched inputs survive (the
       input registers hold), so the block recomputes on its next
       activation; until then its outputs may disagree with its inputs,
       which is exactly the degradation {!Degrade} classifies. *)
    Option.iter Fault.note_reset t.i_faults;
    let d = Graph.descriptor t.graph id in
    let rt = istate t id in
    rt.env <- Eval_oracle.init d.Eblock.Descriptor.behavior;
    Array.iteri
      (fun timer gen -> if gen > 0 then rt.timer_gen.(timer) <- gen + 1)
      rt.timer_gen;
    Array.iteri (fun port v -> ipresent t ~time id port v)
      d.Eblock.Descriptor.output_init

let istep t =
  match Event_queue.min_binding_opt t.queue with
  | None -> false
  | Some (((time, _, _) as key), event) ->
    t.queue <- Event_queue.remove key t.queue;
    t.depth <- t.depth - 1;
    iprocess t ~time event;
    true

let irun_until t horizon =
  let rec loop () =
    match Event_queue.min_binding_opt t.queue with
    | Some (((time, _, _) as key), event) when time <= horizon ->
      t.queue <- Event_queue.remove key t.queue;
      t.depth <- t.depth - 1;
      iprocess t ~time event;
      loop ()
    | Some _ | None -> t.i_clock <- max t.i_clock horizon
  in
  loop ()

(* ================================================================== *)
(* The engine API test_kernel.ml compares, as the engine dispatched it
   to this kernel. *)

type t = interp

let create = icreate

let now t = t.i_clock

let queue_depth t = t.depth

let last_active t = t.i_last_active

let settle ?(limit = 100_000) t =
  Obs.Journal.with_span "sim.settle" @@ fun () ->
  let drained =
    let rec go n = if n = limit || not (istep t) then n else go (n + 1) in
    go 0
  in
  if drained = limit then begin
    let queue_depth = queue_depth t in
    let clock = now t in
    let last_node = last_active t in
    if Obs.Journal.enabled () then
      Obs.Journal.emit
        (Obs.Journal.Event_limit { clock; queue_depth; last_node });
    Obs.Journal.note_failure
      (Printf.sprintf
         "simulation event limit exceeded (clock %d, %d events pending)"
         clock queue_depth);
    raise (Sim.Engine.Event_limit_exceeded { clock; queue_depth; last_node })
  end
  else begin
    Obs.Metrics.incr m_settles;
    Obs.Metrics.add m_settle_iterations drained;
    (match t.i_telemetry with
     | None -> ()
     | Some tel -> Telemetry.note_settle tel)
  end

let require_sensor t id =
  match Graph.kind t.graph id with
  | Eblock.Kind.Sensor -> ()
  | Eblock.Kind.Output | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    invalid_arg (Printf.sprintf "Engine.set_sensor: node %d is not a sensor" id)

let set_sensor_at t ~time id b =
  require_sensor t id;
  if time < now t then invalid_arg "Engine.set_sensor_at: time in the past";
  ischedule t ~time (Sensor_change (id, b))

let set_sensor t id b = set_sensor_at t ~time:(now t) id b

let output_value t id =
  match Graph.kind t.graph id with
  | Eblock.Kind.Output -> (istate t id).input_latch.(0)
  | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    invalid_arg
      (Printf.sprintf "Engine.output_value: node %d is not a primary output" id)

let output_values t =
  List.map (fun id -> (id, output_value t id)) (Graph.primary_outputs t.graph)

let trace t = Tbuf.to_list t.i_trace

let activation_count t = t.i_activations

let packet_count t = t.i_packets

let fault_stats t = Option.map Fault.stats t.i_faults

(* Sim.Stimulus.settled_outputs, over this kernel. *)
let settled_outputs engine script =
  let ordered =
    List.stable_sort
      (fun (a : Sim.Stimulus.step) b -> Int.compare a.time b.time)
      script
  in
  List.map
    (fun (step : Sim.Stimulus.step) ->
      let time = max step.time (now engine) in
      set_sensor_at engine ~time step.sensor step.value;
      settle engine;
      (step.time, output_values engine))
    ordered

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(* one per slot of a counter block's [totals], in slot order *)
let m_totals =
  Array.map
    (fun (name, doc) -> Obs.Metrics.counter ("sim." ^ name) ~doc)
    [| ("fault.drops", "packets dropped");
      ("fault.duplicates", "packets duplicated");
      ("fault.corruptions", "packet values corrupted");
      ("fault.jittered", "deliveries jitter-delayed");
      ("fault.dead_link_losses", "packets lost on a dead link");
      ("fault.resets", "spurious block resets");
      ("fault.stuck_overrides", "output presentations overridden by stuck-at");
      ("events_processed", "queue events dispatched");
      ("packets_delivered", "Deliver events consumed");
      ("packets_sent", "packets sent on output change (the power proxy)");
      ("activations", "block behaviour evaluations");
      ("settles", "settle calls completed");
      ("settle_iterations", "events drained across all settles") |]

type value = Behavior.Ast.value

type tie_order =
  | Fifo
  | Lifo
  | Shuffled of int

exception
  Event_limit_exceeded of {
    clock : int;
    queue_depth : int;
    last_node : Node_id.t option;
  }

let () =
  Printexc.register_printer (function
    | Event_limit_exceeded { clock; queue_depth; last_node } ->
      Some
        (Printf.sprintf
           "Engine.Event_limit_exceeded (clock %d, %d events pending, last \
            active node %s): self-retriggering network?"
           clock queue_depth
           (match last_node with Some id -> string_of_int id | None -> "-"))
    | _ -> None)

let wire_delay = 1

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

  let clear b = b.len <- 0

  let to_list b =
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) ((b.times.(i), b.nodes.(i), b.vals.(i)) :: acc)
    in
    go (b.len - 1) []
end

(* ================================================================== *)
(* The kernel: discrete-event semantics over compiled data.  Behaviours
   are lowered once into closures over flat state ({!Behavior.Compile}),
   node ids are compacted to [0 .. n-1] so every per-node lookup is an
   array index, each (node, port) has its fanout edges as a flat index
   slice, and pending events live in a timing-wheel calendar over slots
   of a grow-by-doubling struct-of-arrays store — no per-event boxing,
   O(1) depth.  Events run in the lexicographic (time, priority, seq)
   total order (seq is unique), so traces, PRNG draw order, fault
   strikes, and telemetry are byte-identical to the interpreted oracle
   in test/sim_oracle.ml (test_kernel.ml). *)

(* Event tags in [ev_tag]. *)
let tag_deliver = 0
let tag_timer = 1
let tag_sensor = 2
let tag_reset = 3

(* The near-future window of the calendar: one bucket per tick.  Must
   be a power of two (bucket = time land [wheel_mask]). *)
let wheel_w = 256
let wheel_mask = wheel_w - 1

(* The immutable half of an engine: everything [start] reads but never
   writes, built once per network by [prepare] and shared by every run
   started from it — including runs on other domains. *)
type prepared = {
  p_graph : Graph.t;
  (* dense ids, behaviours and edges: the fields of [t] below that
     share their names *)
  p_ids : Node_id.t array;
  p_idx_of : (Node_id.t, int) Hashtbl.t;
  p_kinds : Eblock.Kind.t array;
  p_descs : Eblock.Descriptor.t array;
  p_progs : Behavior.Compile.t array;
  p_sweep : int array;
      (* the computing blocks (neither sensor nor output), in
         topological order: the power-on sweep's schedule *)
  (* power-on latch images, copied by every start *)
  p_cin_k : int array array;
  p_cin_n : int array array;
  p_cout_k : int array array;
  p_cout_n : int array array;
  p_n_timers : int array;
  p_e_rec : Graph.edge array;
  p_e_dst : int array;
  p_e_dst_port : int array;
  p_fo : int array array array;
  p_unit_delays : int array;  (* [wire_delay] per edge *)
  p_outputs : int array;  (* dense primary outputs, ascending id *)
}

type t = {
  c_net : prepared;
      (* the hot path reads the tables below, copied out of [c_net] so
         that each lookup is one load *)
  ids : Node_id.t array;  (* dense index -> node id, ascending *)
  kinds : Eblock.Kind.t array;
  descs : Eblock.Descriptor.t array;
  progs : Behavior.Compile.t array;
  pstates : Behavior.Compile.state array;
  (* latches, int-encoded via Behavior.Compile.value_tag (0/1 Bool,
     2 Int with payload in the parallel array): a delivery is two
     unboxed stores, no write barrier *)
  cin_k : int array array;
  cin_n : int array array;
  cout_k : int array array;
  cout_n : int array array;
  tgen : int array array;  (* per node, per timer slot: generation *)
  (* dense edges, indexed in (source node asc, port asc, fanout order) *)
  e_rec : Graph.edge array;
  e_dst : int array;  (* dense destination node *)
  e_dst_port : int array;
  fo : int array array array;  (* node -> port -> edge indices *)
  e_delay : int array;  (* per-edge packet latency, already clamped >= 1 *)
  c_tie_order : tie_order;
  mutable c_tie_rng : Prng.t option;
  (* A run is armed by a fault plan, a collector or both.  [c_tel] is the
     counter block: the collector the engine was started with (kept by
     [restart]), or else a block of its own.  [c_totals] is its
     [totals], where every run counts its totals. *)
  c_tel : Telemetry.t;
  c_totals : int array;
  c_observe : bool;  (* a collector counts every event *)
  mutable c_faulted : bool;
  mutable c_armed : bool;  (* c_faulted || c_observe *)
  (* the fault plan resolved per dense edge and node *)
  mutable c_rng : Prng.t;
  mutable f_drop : int array;  (* Prng.threshold of each probability *)
  mutable f_dup : int array;
  mutable f_corrupt : int array;
  mutable f_jitter : int array;
  mutable f_dies : int array;  (* tick the link dies at, max_int: never *)
  mutable f_stuck : Fault.stuck array array;
  c_flushed : int array;
      (* the part of each slot of [c_totals] the sim.* metrics hold:
         the global counters are atomics, so the run counts in plain
         ints and flushes the deltas whenever control returns to the
         caller (settle, run_until, public step) *)
  (* the event calendar: a struct-of-arrays store holding every pending
     event's fields, addressed by slot; a timing wheel (one bucket per
     tick over a [wheel_w]-tick window) for near events; and a
     time-sorted overflow array for events beyond the window *)
  mutable ev_time : int array;
  mutable ev_prio : int array;
  mutable ev_seq : int array;
  mutable ev_tag : int array;
  mutable ev_a : int array;  (* edge or node index; free-list link *)
  mutable ev_b : int array;  (* timer slot *)
  mutable ev_c : int array;  (* timer generation *)
  mutable ev_vk : int array;  (* value, int-encoded: 0/1 = Bool, 2 = Int *)
  mutable ev_vn : int array;  (* Int payload when ev_vk = 2 *)
  mutable store_len : int;
  mutable free_ev : int;  (* free-list head in the store, -1 none *)
  buckets : int array array;
      (* wheel: per-tick slot lists, each allocated on its first append
         (most runs touch a few dozen of the [wheel_w] ticks) *)
  b_len : int array;
  b_dirty : Bytes.t;
      (* per bucket, nonzero: the bucket holds an append that broke
         (priority, seq) order — sorted lazily when the bucket drains.
         Bytes, not a bool array: every start allocates and clears it *)
  mutable cursor : int;
      (* wheel window start; also the time of the bucket being drained.
         Every wheel event has time in [cursor, cursor + wheel_w), so
         bucket index (time land mask) identifies the time uniquely and
         entries of one bucket all share it. *)
  mutable cur_pos : int;  (* drained prefix of the cursor's bucket *)
  mutable wheel_count : int;
  (* overflow: slots with times >= cursor + wheel_w, kept sorted by
     time ascending in [ovf_head, ovf_len).  Pre-scheduled stimulus
     scripts arrive in ascending time order, so pushes are O(1)
     appends and draining into the wheel is a head-pointer bump —
     the pattern a binary heap serves worst (every event paid two
     log-n, cache-hostile sift passes).  An out-of-order push costs
     a binary search plus a memmove; within one time the array order
     is arbitrary, because (priority, seq) order is restored by the
     bucket's lazy sort. *)
  mutable ovf : int array;
  mutable ovf_len : int;
  mutable ovf_head : int;
  mutable c_seq : int;
  mutable c_clock : int;
  mutable c_last : int;  (* dense index of the last active node, -1 *)
  c_trace : Tbuf.t;
}

(* --- event store + overflow ---------------------------------------- *)

(* Unsafe indexing for the kernel's inner loop: every index below is an
   engine-maintained invariant (slots < store_len, dense node/edge/port
   indices built at create time, bucket indices masked), so the bounds
   checks only cost. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let ev_grow t =
  let cap = Array.length t.ev_time in
  let ncap = 2 * cap in
  let grow a zero =
    let a' = Array.make ncap zero in
    Array.blit a 0 a' 0 cap;
    a'
  in
  t.ev_time <- grow t.ev_time 0;
  t.ev_prio <- grow t.ev_prio 0;
  t.ev_seq <- grow t.ev_seq 0;
  t.ev_tag <- grow t.ev_tag 0;
  t.ev_a <- grow t.ev_a 0;
  t.ev_b <- grow t.ev_b 0;
  t.ev_c <- grow t.ev_c 0;
  t.ev_vk <- grow t.ev_vk 0;
  t.ev_vn <- grow t.ev_vn 0

let ev_alloc t =
  if t.free_ev >= 0 then begin
    let slot = t.free_ev in
    t.free_ev <- t.ev_a.%(slot);
    slot
  end
  else begin
    if t.store_len = Array.length t.ev_time then ev_grow t;
    let slot = t.store_len in
    t.store_len <- t.store_len + 1;
    slot
  end

(* The freed slot's boxed value is left in place: it stays live only
   until the slot is reused, the store never shrinks, and skipping the
   write saves a [caml_modify] barrier on every event. *)
let ev_free t slot =
  t.ev_a.%(slot) <- t.free_ev;
  t.free_ev <- slot

let ovf_count t = t.ovf_len - t.ovf_head

(* Insert a slot into the sorted overflow.  The ascending-stream case
   (time >= the current last entry) is a plain append; otherwise binary
   search by time and shift the tail one right. *)
let ovf_push t slot =
  (if t.ovf_len = Array.length t.ovf then
     if t.ovf_head > 0 then begin
       (* reclaim the drained prefix before growing *)
       let n = ovf_count t in
       Array.blit t.ovf t.ovf_head t.ovf 0 n;
       t.ovf_head <- 0;
       t.ovf_len <- n
     end
     else begin
       let cap = Array.length t.ovf in
       let a = Array.make (2 * cap) 0 in
       Array.blit t.ovf 0 a 0 cap;
       t.ovf <- a
     end);
  let a = t.ovf in
  let time = t.ev_time.%(slot) in
  if t.ovf_len = t.ovf_head || t.ev_time.%(a.%(t.ovf_len - 1)) <= time then begin
    a.%(t.ovf_len) <- slot;
    t.ovf_len <- t.ovf_len + 1
  end
  else begin
    (* upper bound: first index whose time exceeds [time] *)
    let lo = ref t.ovf_head and hi = ref t.ovf_len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.ev_time.%(a.%(mid)) <= time then lo := mid + 1 else hi := mid
    done;
    Array.blit a !lo a (!lo + 1) (t.ovf_len - !lo);
    a.%(!lo) <- slot;
    t.ovf_len <- t.ovf_len + 1
  end

(* --- the timing wheel ---------------------------------------------- *)

(* Entries of one bucket share their time (window width = bucket count),
   so within-bucket order is (priority, seq) alone. *)
let key_lt t s1 s2 =
  let p1 = t.ev_prio.%(s1) and p2 = t.ev_prio.%(s2) in
  p1 < p2 || (p1 = p2 && t.ev_seq.%(s1) < t.ev_seq.%(s2))

let wheel_append t slot =
  let time = t.ev_time.%(slot) in
  let b = time land wheel_mask in
  let len = t.b_len.%(b) in
  let arr =
    let arr = t.buckets.%(b) in
    if len < Array.length arr then arr
    else begin
      (* a bucket starts empty ([||]) and gets 8 slots on first use *)
      let arr' = Array.make (if len = 0 then 8 else 2 * len) 0 in
      Array.blit arr 0 arr' 0 len;
      t.buckets.%(b) <- arr';
      arr'
    end
  in
  arr.%(len) <- slot;
  t.b_len.%(b) <- len + 1;
  t.wheel_count <- t.wheel_count + 1;
  (* appends almost always arrive in (priority, seq) order (Fifo always:
     priority = seq); the rare out-of-order append (Lifo, Shuffled, or
     a migration mixing with direct pushes) marks the bucket for a lazy
     sort at drain time *)
  let start = if time = t.cursor then t.cur_pos else 0 in
  if len > start && key_lt t slot arr.%(len - 1) then
    Bytes.unsafe_set t.b_dirty b '\001'

(* Insertion sort of the pending suffix — buckets are small and almost
   sorted when this runs at all. *)
let sort_bucket t b lo =
  let arr = t.buckets.%(b) in
  for i = lo + 1 to t.b_len.%(b) - 1 do
    let s = arr.%(i) in
    let j = ref (i - 1) in
    while !j >= lo && key_lt t s arr.%(!j) do
      arr.%(!j + 1) <- arr.%(!j);
      decr j
    done;
    arr.%(!j + 1) <- s
  done;
  Bytes.unsafe_set t.b_dirty b '\000'

(* Advance the cursor to the earliest pending event's time.  Requires a
   pending event.  Wheel events lie within [cursor, cursor + wheel_w),
   so tick-by-tick advance finds one in at most wheel_w empty-bucket
   probes; with the wheel empty the cursor jumps straight to the
   overflow's minimum (always >= cursor + wheel_w).  Every advance
   migrates the overflow prefix the window newly covers into its
   buckets — a head-pointer walk, since the overflow is time-sorted.

   Only the pop path calls this, so between engine operations the
   cursor rests at the last processed event's time (<= clock) and a
   schedule can never land behind it. *)
let rec calendar_advance t =
  let b = t.cursor land wheel_mask in
  if t.cur_pos >= t.b_len.%(b) then begin
    if t.wheel_count = 0 then t.cursor <- t.ev_time.%(t.ovf.%(t.ovf_head))
    else t.cursor <- t.cursor + 1;
    let horizon = t.cursor + wheel_w in
    while
      t.ovf_head < t.ovf_len && t.ev_time.%(t.ovf.%(t.ovf_head)) < horizon
    do
      wheel_append t t.ovf.%(t.ovf_head);
      t.ovf_head <- t.ovf_head + 1
    done;
    if t.ovf_head = t.ovf_len then begin
      t.ovf_head <- 0;
      t.ovf_len <- 0
    end;
    calendar_advance t
  end

(* Earliest pending time without moving the cursor ([run_until]'s
   horizon check); [max_int] when nothing is pending.  The overflow
   cannot beat the wheel: its times are all >= cursor + wheel_w, and a
   nonempty wheel yields within the window. *)
let cnext_time t =
  if t.wheel_count = 0 then
    if ovf_count t = 0 then max_int else t.ev_time.%(t.ovf.%(t.ovf_head))
  else begin
    let rec scan time =
      let b = time land wheel_mask in
      let pos = if time = t.cursor then t.cur_pos else 0 in
      if pos < t.b_len.%(b) then time else scan (time + 1)
    in
    scan t.cursor
  end

(* --- scheduling ---------------------------------------------------- *)

let cschedule t ~time ~tag ~a ~b ~c ~vk ~vn =
  (* The priority orders same-time events: scheduling order for Fifo,
     reversed for Lifo, seeded-random for Shuffled.  Perturbing it changes
     exactly the packet races whose outcome the network does not actually
     define (see {!tie_order}). *)
  t.c_seq <- t.c_seq + 1;
  let priority =
    match t.c_tie_order, t.c_tie_rng with
    | Fifo, _ | (Lifo | Shuffled _), None -> t.c_seq
    | Lifo, _ -> -t.c_seq
    | Shuffled _, Some rng -> Prng.int rng 1_000_000_000
  in
  let slot = ev_alloc t in
  t.ev_time.%(slot) <- time;
  t.ev_prio.%(slot) <- priority;
  t.ev_seq.%(slot) <- t.c_seq;
  t.ev_tag.%(slot) <- tag;
  t.ev_a.%(slot) <- a;
  t.ev_b.%(slot) <- b;
  t.ev_c.%(slot) <- c;
  t.ev_vk.%(slot) <- vk;
  t.ev_vn.%(slot) <- vn;
  if time < t.cursor + wheel_w then wheel_append t slot else ovf_push t slot;
  if t.c_observe then begin
    let tel = t.c_tel in
    let ni = if tag = tag_deliver then t.e_dst.%(a) else a in
    let pending = tel.nodes.%(Telemetry.n_pending) in
    let hwm = tel.nodes.%(Telemetry.n_hwm) in
    pending.%(ni) <- pending.%(ni) + 1;
    if pending.%(ni) > hwm.%(ni) then hwm.%(ni) <- pending.%(ni);
    let depth = t.wheel_count + ovf_count t in
    if depth > tel.run_hwm then tel.run_hwm <- depth
  end

(* --- the armed path: the fault draws and the counters --------------- *)

(* Count one: cell [i] of row [row] of a counter block's rows. *)
let bump rows row i =
  let a = rows.%(row) in
  a.%(i) <- a.%(i) + 1

(* One more of a run total: slot [k] of the counter block's [totals],
   which {!fault_stats}, {!activation_count}, {!packet_count} and the
   sim.* metrics read. *)
let count_total t k n =
  let c = t.c_totals in
  c.%(k) <- c.%(k) + n

let count_one t k = count_total t k 1

let count_strike t row ei =
  bump t.c_tel.links row ei;
  count_one t (row - Telemetry.l_drops)

(* A decision draws from the plan's stream only when its probability is
   nonzero, so the empty plan perturbs nothing.  Probabilities are
   {!Prng.threshold}s: no float crosses a call, nothing is allocated. *)
let strikes t thresholds ei =
  let k = thresholds.%(ei) in
  k > 0 && Prng.chance t.c_rng k

let jitter t ei =
  let j = t.f_jitter.%(ei) in
  if j <= 0 then 0
  else begin
    let extra = Prng.int t.c_rng (j + 1) in
    if extra > 0 then count_strike t Telemetry.l_jittered ei;
    extra
  end

let deliver t ~time ei extra vk vn =
  let d = t.e_delay.%(ei) + extra in
  if t.c_observe then Obs.Histogram.observe_int t.c_tel.latency.%(ei) d;
  cschedule t ~time:(time + d) ~tag:tag_deliver ~a:ei ~b:0 ~c:0 ~vk ~vn

(* One packet send under the run's plan.  The draw order is the replay
   contract: the drop decision, the corruption decision (and the
   flipped bit of an integer), the delivery's jitter, the duplicate
   decision, the duplicate's jitter.  A dead link draws nothing. *)
let armed_send t ~time ei vk vn =
  if t.c_observe then bump t.c_tel.links Telemetry.l_sends ei;
  if time >= t.f_dies.%(ei) then count_strike t Telemetry.l_dead ei
  else if strikes t t.f_drop ei then count_strike t Telemetry.l_drops ei
  else begin
    (* corruption flips a boolean, or one of an integer's low 8 bits *)
    let corrupted = strikes t t.f_corrupt ei in
    if corrupted then count_strike t Telemetry.l_corruptions ei;
    let vn =
      if corrupted && vk = 2 then vn lxor (1 lsl Prng.int t.c_rng 8) else vn
    in
    let vk = if corrupted && vk < 2 then 1 - vk else vk in
    let j1 = jitter t ei in
    if strikes t t.f_dup ei then begin
      count_strike t Telemetry.l_duplicates ei;
      let j2 = jitter t ei in
      deliver t ~time ei j1 vk vn;
      deliver t ~time ei j2 vk vn
    end
    else deliver t ~time ei j1 vk vn
  end

(* The value a block actually presents: the first stuck-at entry of the
   plan for this port that is active at [time] overrides it. *)
let rec stuck_override t ~time stucks i port v =
  if i = Array.length stucks then v
  else begin
    let s = stucks.%(i) in
    if s.Fault.port = port && time >= s.Fault.from then begin
      if not (Behavior.Ast.equal_value s.Fault.value v) then
        count_one t Telemetry.k_stuck;
      s.Fault.value
    end
    else stuck_override t ~time stucks (i + 1) port v
  end

(* --- the hot path -------------------------------------------------- *)

(* Latch a presented value on output [port] of dense node [ni]; on a
   change, count a packet for every connection of the port. *)
let latch_out t ni port vk vn =
  let ok = t.cout_k.%(ni) in
  let changed =
    ok.%(port) <> vk || (vk = 2 && t.cout_n.%(ni).%(port) <> vn)
  in
  if changed then begin
    ok.%(port) <- vk;
    t.cout_n.%(ni).%(port) <- vn;
    count_total t Telemetry.k_packets (Array.length t.fo.%(ni).%(port))
  end;
  changed

(* Present [v] on an output port and, on a change, send it down every
   connection: [present] on an unarmed run, [armed_present] (after the
   stuck-at override) on an armed one, chosen once per activation. *)
let present t ~time ni port v =
  let vk = Behavior.Compile.value_tag v in
  let vn = Behavior.Compile.value_payload v in
  if latch_out t ni port vk vn then begin
    let edges = t.fo.%(ni).%(port) in
    for k = 0 to Array.length edges - 1 do
      let ei = edges.%(k) in
      cschedule t ~time:(time + t.e_delay.%(ei)) ~tag:tag_deliver ~a:ei ~b:0
        ~c:0 ~vk ~vn
    done
  end

let armed_present t ~time ni port v =
  let v = stuck_override t ~time t.f_stuck.%(ni) 0 port v in
  let vk = Behavior.Compile.value_tag v in
  let vn = Behavior.Compile.value_payload v in
  if latch_out t ni port vk vn then begin
    let edges = t.fo.%(ni).%(port) in
    for k = 0 to Array.length edges - 1 do
      armed_send t ~time edges.%(k) vk vn
    done
  end

let cactivate t ~time ni ~fired =
  count_one t Telemetry.k_activations;
  if t.c_observe then bump t.c_tel.nodes Telemetry.n_activations ni;
  let st = t.pstates.%(ni) in
  Behavior.Compile.run_bound t.progs.%(ni) st ~fired;
  (* flush the scratch ourselves in the canonical order — ascending
     ports, then ascending timer slots — so an activation involves no
     closure dispatch at all *)
  let out_set = st.Behavior.Compile.out_set in
  let out_val = st.Behavior.Compile.out_val in
  if t.c_armed then
    for port = 0 to Array.length out_set - 1 do
      if out_set.%(port) then armed_present t ~time ni port out_val.%(port)
    done
  else
    for port = 0 to Array.length out_set - 1 do
      if out_set.%(port) then present t ~time ni port out_val.%(port)
    done;
  let tmr_act = st.Behavior.Compile.tmr_act in
  if Array.length tmr_act > 0 then begin
    let tg = t.tgen.%(ni) in
    for slot = 0 to Array.length tmr_act - 1 do
      match tmr_act.%(slot) with
      | 1 ->
        let gen = tg.%(slot) + 1 in
        tg.%(slot) <- gen;
        cschedule t
          ~time:(time + st.Behavior.Compile.tmr_delay.%(slot))
          ~tag:tag_timer ~a:ni ~b:slot ~c:gen ~vk:0 ~vn:0
      | 2 -> tg.%(slot) <- tg.%(slot) + 1
      | _ -> ()
    done
  end

let cprocess t ~time ~tag ~a ~b ~c ~vk ~vn =
  if time > t.c_clock then t.c_clock <- time;
  let ni = if tag = tag_deliver then t.e_dst.%(a) else a in
  t.c_last <- ni;
  count_one t Telemetry.k_events;
  if t.c_observe then begin
    let tel = t.c_tel in
    bump tel.nodes Telemetry.n_events ni;
    let pending = tel.nodes.%(Telemetry.n_pending) in
    pending.%(ni) <- pending.%(ni) - 1;
    if time > tel.clock then tel.clock <- time;
    if tag = tag_deliver then bump tel.links Telemetry.l_deliveries a;
    if tel.timeline then Telemetry.timeline_push tel ~time ~tag a
  end;
  if tag = tag_deliver then begin
    count_one t Telemetry.k_deliveries;
    let port = t.e_dst_port.%(a) in
    let ik = t.cin_k.%(ni) in
    let changed =
      ik.%(port) <> vk || (vk = 2 && t.cin_n.%(ni).%(port) <> vn)
    in
    ik.%(port) <- vk;
    t.cin_n.%(ni).%(port) <- vn;
    match t.kinds.%(ni) with
    | Eblock.Kind.Output ->
      if changed then
        Tbuf.push t.c_trace ~time t.ids.%(ni)
          (Behavior.Compile.value_of_code vk vn)
    | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
    | Eblock.Kind.Programmable -> cactivate t ~time ni ~fired:(-1)
  end
  else if tag = tag_timer then begin
    if t.tgen.%(ni).%(b) = c then cactivate t ~time ni ~fired:b
  end
  else if tag = tag_sensor then
    (if t.c_armed then armed_present else present)
      t ~time ni 0 (Behavior.Compile.value_of_code vk vn)
  else begin
    (* Brownout: the block loses its volatile state — variable store and
       pending timers — and its outputs snap back to power-on values,
       announced downstream like a power-on.  Latched inputs survive (the
       input registers hold), so the block recomputes on its next
       activation; until then its outputs may disagree with its inputs,
       which is exactly the degradation {!Degrade} classifies. *)
    bump t.c_tel.nodes Telemetry.n_resets ni;
    count_one t Telemetry.k_resets;
    Behavior.Compile.reset_state t.progs.%(ni) t.pstates.%(ni);
    let tg = t.tgen.%(ni) in
    for s = 0 to Array.length tg - 1 do
      if tg.%(s) > 0 then tg.%(s) <- tg.%(s) + 1
    done;
    Array.iteri (fun port v -> armed_present t ~time ni port v)
      t.descs.%(ni).Eblock.Descriptor.output_init
  end

let cflush_metrics t =
  for k = 0 to Telemetry.n_totals - 1 do
    let total = t.c_totals.%(k) in
    if total > t.c_flushed.%(k) then begin
      Obs.Metrics.add m_totals.%(k) (total - t.c_flushed.%(k));
      t.c_flushed.%(k) <- total
    end
  done

let cstep t =
  if t.wheel_count + t.ovf_len - t.ovf_head = 0 then false
  else begin
    calendar_advance t;
    let b = t.cursor land wheel_mask in
    if Bytes.unsafe_get t.b_dirty b <> '\000' then sort_bucket t b t.cur_pos;
    let slot = t.buckets.%(b).%(t.cur_pos) in
    let pos = t.cur_pos + 1 in
    if pos >= t.b_len.%(b) then begin
      t.b_len.%(b) <- 0;
      t.cur_pos <- 0
    end
    else t.cur_pos <- pos;
    t.wheel_count <- t.wheel_count - 1;
    let time = t.ev_time.%(slot) in
    let tag = t.ev_tag.%(slot) in
    let a = t.ev_a.%(slot) in
    let b = t.ev_b.%(slot) in
    let c = t.ev_c.%(slot) in
    let vk = t.ev_vk.%(slot) in
    let vn = t.ev_vn.%(slot) in
    ev_free t slot;
    cprocess t ~time ~tag ~a ~b ~c ~vk ~vn;
    true
  end

let crun_until t horizon =
  let rec loop () =
    if t.wheel_count + t.ovf_len - t.ovf_head > 0 && cnext_time t <= horizon
    then begin
      ignore (cstep t);
      loop ()
    end
    else begin
      if horizon > t.c_clock then t.c_clock <- horizon;
      cflush_metrics t
    end
  in
  loop ()

(* --- construction -------------------------------------------------- *)

let prepare g =
  let order = Graph.topological_order g in
  let ids = Array.of_list (Graph.node_ids g) in
  let n_nodes = Array.length ids in
  let idx_of = Hashtbl.create (2 * n_nodes) in
  Array.iteri (fun i id -> Hashtbl.replace idx_of id i) ids;
  let descs = Array.map (fun id -> Graph.descriptor g id) ids in
  let kinds = Array.map (fun d -> d.Eblock.Descriptor.kind) descs in
  let computes ni =
    match kinds.(ni) with
    | Eblock.Kind.Sensor | Eblock.Kind.Output -> false
    | Eblock.Kind.Compute | Eblock.Kind.Comm | Eblock.Kind.Programmable -> true
  in
  let progs =
    Array.map
      (fun (d : Eblock.Descriptor.t) ->
        Behavior.Compile.compile d.behavior ~n_outputs:d.n_outputs)
      descs
  in
  let in_init i port =
    let id = ids.(i) in
    match Graph.driver g id port with
    | Some src ->
      let src_desc = Graph.descriptor g src.Graph.node in
      src_desc.Eblock.Descriptor.output_init.(src.Graph.port)
    | None -> dummy_value
  in
  let in_latch encode =
    Array.mapi
      (fun i (d : Eblock.Descriptor.t) ->
        Array.init d.n_inputs (fun port -> encode (in_init i port)))
      descs
  in
  let out_latch encode =
    Array.map
      (fun (d : Eblock.Descriptor.t) -> Array.map encode d.output_init)
      descs
  in
  (* dense edge tables, in (node asc, port asc, fanout order) *)
  let edges = ref [] and n_edges = ref 0 in
  let fo =
    Array.mapi
      (fun i (d : Eblock.Descriptor.t) ->
        Array.init d.n_outputs (fun port ->
            let es = Graph.fanout_on g ids.(i) port in
            Array.of_list
              (List.map
                 (fun e ->
                   let ei = !n_edges in
                   incr n_edges;
                   edges := e :: !edges;
                   ei)
                 es)))
      descs
  in
  let e_rec = Array.of_list (List.rev !edges) in
  {
    p_graph = g;
    p_ids = ids;
    p_idx_of = idx_of;
    p_kinds = kinds;
    p_descs = descs;
    p_progs = progs;
    p_sweep =
      Array.of_list
        (List.filter computes
           (List.map (fun id -> Hashtbl.find idx_of id) order));
    p_cin_k = in_latch Behavior.Compile.value_tag;
    p_cin_n = in_latch Behavior.Compile.value_payload;
    p_cout_k = out_latch Behavior.Compile.value_tag;
    p_cout_n = out_latch Behavior.Compile.value_payload;
    p_n_timers = Array.map Behavior.Compile.n_timers progs;
    p_e_rec = e_rec;
    p_e_dst =
      Array.map (fun e -> Hashtbl.find idx_of e.Graph.dst.Graph.node) e_rec;
    p_e_dst_port = Array.map (fun e -> e.Graph.dst.Graph.port) e_rec;
    p_fo = fo;
    p_unit_delays = Array.make (Array.length e_rec) wire_delay;
    p_outputs =
      Array.of_list
        (List.filter
           (fun ni -> Eblock.Kind.equal kinds.(ni) Eblock.Kind.Output)
           (List.init n_nodes Fun.id));
  }

let prepared_graph p = p.p_graph

(* The per-run arrays of an engine, sized for its network.  Their
   contents are whatever [power_on] writes next. *)
let alloc ~tie_order ~edge_delay ~telemetry p =
  let sized images =
    Array.map (fun a -> Array.make (Array.length a) 0) images
  in
  let c_tel = Option.value telemetry ~default:(Telemetry.create ()) in
  let t = {
    c_net = p;
    ids = p.p_ids;
    kinds = p.p_kinds;
    descs = p.p_descs;
    progs = p.p_progs;
    pstates = Array.map Behavior.Compile.fresh_state p.p_progs;
    cin_k = sized p.p_cin_k;
    cin_n = sized p.p_cin_n;
    cout_k = sized p.p_cout_k;
    cout_n = sized p.p_cout_n;
    tgen =
      Array.map (fun n -> if n = 0 then [||] else Array.make n 0) p.p_n_timers;
    e_rec = p.p_e_rec;
    e_dst = p.p_e_dst;
    e_dst_port = p.p_e_dst_port;
    fo = p.p_fo;
    e_delay =
      (match edge_delay with
       | None -> p.p_unit_delays
       | Some f -> Array.map (fun e -> max 1 (f e)) p.p_e_rec);
    c_tie_order = tie_order;
    c_tie_rng = None;
    c_tel;
    c_totals = c_tel.Telemetry.totals;
    c_observe = Option.is_some telemetry;
    c_faulted = false;
    c_armed = false;
    c_rng = Prng.create 0;
    f_drop = [||];
    f_dup = [||];
    f_corrupt = [||];
    f_jitter = [||];
    f_dies = [||];
    f_stuck = [||];
    c_flushed = Array.make Telemetry.n_totals 0;
    ev_time = Array.make 64 0;
    ev_prio = Array.make 64 0;
    ev_seq = Array.make 64 0;
    ev_tag = Array.make 64 0;
    ev_a = Array.make 64 0;
    ev_b = Array.make 64 0;
    ev_c = Array.make 64 0;
    ev_vk = Array.make 64 0;
    ev_vn = Array.make 64 0;
    store_len = 0;
    free_ev = -1;
    ovf = Array.make 64 0;
    ovf_len = 0;
    ovf_head = 0;
    buckets = Array.make wheel_w [||];
    b_len = Array.make wheel_w 0;
    b_dirty = Bytes.make wheel_w '\000';
    cursor = 0;
    cur_pos = 0;
    wheel_count = 0;
    c_seq = 0;
    c_clock = 0;
    c_last = -1;
    c_trace = Tbuf.create ();
  }
  in
  (* install the long-lived input latches; from here on activations go
     through [Compile.run_bound] and never touch the latch pointer *)
  Array.iteri
    (fun ni st ->
      Behavior.Compile.bind_inputs st ~tags:t.cin_k.(ni) ~payloads:t.cin_n.(ni))
    t.pstates;
  t

(* Resolve a plan into the per-edge and per-node arrays the armed path
   reads: the default edge fault everywhere, then the overrides in plan
   order (a later one for the same connection wins), then the stuck-at
   lists of the blocks in the network. *)
let resolve t (plan : Fault.plan) =
  let p = t.c_net in
  let ne = Array.length p.p_e_rec and nn = Array.length p.p_ids in
  let sized a = if Array.length a = ne then a else Array.make ne 0 in
  t.f_drop <- sized t.f_drop;
  t.f_dup <- sized t.f_dup;
  t.f_corrupt <- sized t.f_corrupt;
  t.f_jitter <- sized t.f_jitter;
  t.f_dies <- sized t.f_dies;
  let set ei (f : Fault.edge_fault) =
    t.f_drop.(ei) <- Prng.threshold f.drop;
    t.f_dup.(ei) <- Prng.threshold f.duplicate;
    t.f_corrupt.(ei) <- Prng.threshold f.corrupt;
    t.f_jitter.(ei) <- f.jitter;
    t.f_dies.(ei) <- Option.value f.dies_at ~default:max_int
  in
  for ei = 0 to ne - 1 do set ei plan.default_edge done;
  List.iter
    (fun ((e : Graph.edge), f) ->
      match Hashtbl.find_opt p.p_idx_of e.src.node with
      | Some ni when e.src.port >= 0 && e.src.port < Array.length p.p_fo.(ni) ->
        Array.iter
          (fun ei -> if Graph.compare_edge p.p_e_rec.(ei) e = 0 then set ei f)
          p.p_fo.(ni).(e.src.port)
      | Some _ | None -> ())
    plan.edge_overrides;
  t.f_stuck <- Array.make nn [||];
  List.iter
    (fun (id, (f : Fault.node_fault)) ->
      match Hashtbl.find_opt p.p_idx_of id with
      | Some ni when f.stuck <> [] -> t.f_stuck.(ni) <- Array.of_list f.stuck
      | Some _ | None -> ())
    plan.node_faults;
  t.c_rng <- Prng.create plan.seed

(* Arm a run: zero its counter block and resolve its plan. *)
let arm t ~faults =
  t.c_faulted <- Option.is_some faults;
  t.c_armed <- t.c_faulted || t.c_observe;
  Array.fill t.c_totals 0 Telemetry.n_totals 0;
  Array.fill t.c_flushed 0 Telemetry.n_totals 0;
  if t.c_armed then begin
    Telemetry.bind t.c_tel ~edges:t.e_rec ~dsts:t.e_dst ~ids:t.ids
      ~observe:t.c_observe;
    resolve t (Option.value faults ~default:Fault.none)
  end

(* The one initialisation routine, shared by [start] (on freshly
   allocated arrays) and [restart] (on the arrays of an earlier run,
   finished or cut off with events pending), so both leave the engine
   in the same state. *)
let power_on t ~faults =
  let p = t.c_net in
  (* latches from the power-on images, timer generations and variable
     stores from scratch.  The loops are inline: each array holds one
     block's ports or timer slots, and [Array.blit] is an out-of-line
     call. *)
  for ni = 0 to Array.length t.ids - 1 do
    let src = p.p_cin_k.%(ni) and dst = t.cin_k.%(ni) in
    for i = 0 to Array.length src - 1 do dst.%(i) <- src.%(i) done;
    let src = p.p_cin_n.%(ni) and dst = t.cin_n.%(ni) in
    for i = 0 to Array.length src - 1 do dst.%(i) <- src.%(i) done;
    let src = p.p_cout_k.%(ni) and dst = t.cout_k.%(ni) in
    for i = 0 to Array.length src - 1 do dst.%(i) <- src.%(i) done;
    let src = p.p_cout_n.%(ni) and dst = t.cout_n.%(ni) in
    for i = 0 to Array.length src - 1 do dst.%(i) <- src.%(i) done;
    let tg = t.tgen.%(ni) in
    for s = 0 to Array.length tg - 1 do tg.%(s) <- 0 done;
    Behavior.Compile.reset_state t.progs.%(ni) t.pstates.%(ni)
  done;
  (* An empty calendar: no slot in use, every bucket empty and clean,
     no overflow.  Every calendar write goes through [cschedule], which
     counts [c_seq] up, so with [c_seq = 0] (a freshly allocated run, or
     one whose power-on scheduled nothing) the calendar is already
     empty and the 2 × [wheel_w] sweep is skipped. *)
  if t.c_seq > 0 then begin
    t.store_len <- 0;
    t.free_ev <- -1;
    Array.fill t.b_len 0 wheel_w 0;
    Bytes.fill t.b_dirty 0 wheel_w '\000';
    t.cursor <- 0;
    t.cur_pos <- 0;
    t.wheel_count <- 0;
    t.ovf_len <- 0;
    t.ovf_head <- 0
  end;
  t.c_seq <- 0;
  t.c_clock <- 0;
  t.c_last <- -1;
  Tbuf.clear t.c_trace;
  t.c_tie_rng <-
    (match t.c_tie_order with
     | Shuffled seed -> Some (Prng.create seed)
     | Fifo | Lifo -> None);
  arm t ~faults;
  (* Power-on sweep: each block evaluates once so that every output is
     consistent with the power-on inputs (physical blocks announce their
     state at power-on).  Performed latch-to-latch in topological order,
     with no packets and no clock advance; timer requests (e.g. a delay
     block whose power-on input differs from its reset state) become
     ordinary timer events counted from time 0.  The scratch flush
     follows [cactivate]'s order: ascending ports, then ascending timer
     slots. *)
  Array.iter
    (fun ni ->
      let st = t.pstates.(ni) in
      Behavior.Compile.run_bound t.progs.(ni) st ~fired:(-1);
      let out_set = st.Behavior.Compile.out_set in
      for port = 0 to Array.length out_set - 1 do
        if out_set.(port) then begin
          let v = st.Behavior.Compile.out_val.(port) in
          let vk = Behavior.Compile.value_tag v in
          let vn = Behavior.Compile.value_payload v in
          t.cout_k.(ni).(port) <- vk;
          t.cout_n.(ni).(port) <- vn;
          Array.iter
            (fun ei ->
              t.cin_k.(p.p_e_dst.(ei)).(p.p_e_dst_port.(ei)) <- vk;
              t.cin_n.(p.p_e_dst.(ei)).(p.p_e_dst_port.(ei)) <- vn)
            p.p_fo.(ni).(port)
        end
      done;
      let tmr_act = st.Behavior.Compile.tmr_act in
      let tg = t.tgen.(ni) in
      for slot = 0 to Array.length tmr_act - 1 do
        match tmr_act.(slot) with
        | 1 ->
          let gen = tg.(slot) + 1 in
          tg.(slot) <- gen;
          cschedule t ~time:st.Behavior.Compile.tmr_delay.(slot) ~tag:tag_timer
            ~a:ni ~b:slot ~c:gen ~vk:0 ~vn:0
        | 2 -> tg.(slot) <- tg.(slot) + 1
        | _ -> ()
      done)
    p.p_sweep;
  (* Spurious resets are plan-scheduled events like any other; an empty
     plan schedules none and the calendar stays untouched. *)
  Option.iter
    (fun plan ->
      List.iter
        (fun (id, time) ->
          match Hashtbl.find_opt p.p_idx_of id with
          | Some ni ->
            cschedule t ~time ~tag:tag_reset ~a:ni ~b:0 ~c:0 ~vk:0 ~vn:0
          | None -> ())
        (Fault.resets plan))
    faults

let start ?(tie_order = Fifo) ?edge_delay ?faults ?telemetry p =
  let t = alloc ~tie_order ~edge_delay ~telemetry p in
  power_on t ~faults;
  t

let restart ?faults t =
  (* an earlier run aborted by a behaviour error may hold unflushed
     totals: they count toward that run *)
  cflush_metrics t;
  power_on t ~faults

let cindex t id =
  match Hashtbl.find_opt t.c_net.p_idx_of id with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Engine: unknown node %d" id)

(* ================================================================== *)
(* The public engine. *)

let create ?tie_order ?edge_delay ?faults ?telemetry g =
  start ?tie_order ?edge_delay ?faults ?telemetry (prepare g)

let now t = t.c_clock

let step t =
  let stepped = cstep t in
  cflush_metrics t;
  stepped

let run_until = crun_until

let queue_depth t = t.wheel_count + ovf_count t

let last_active t = if t.c_last < 0 then None else Some t.ids.(t.c_last)

let settle ?(limit = 100_000) t =
  Obs.Journal.with_span "sim.settle" @@ fun () ->
  (* drain without [step]'s per-event metric flush *)
  let rec go n = if n = limit || not (cstep t) then n else go (n + 1) in
  let drained = go 0 in
  if drained = limit then begin
    cflush_metrics t;
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
    raise (Event_limit_exceeded { clock; queue_depth; last_node })
  end;
  count_one t Telemetry.k_settles;
  count_total t Telemetry.k_settle_iterations drained;
  cflush_metrics t

let require_sensor t id =
  match Graph.kind t.c_net.p_graph id with
  | Eblock.Kind.Sensor -> ()
  | Eblock.Kind.Output | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    invalid_arg (Printf.sprintf "Engine.set_sensor: node %d is not a sensor" id)

let set_sensor_at t ~time id b =
  require_sensor t id;
  if time < now t then invalid_arg "Engine.set_sensor_at: time in the past";
  cschedule t ~time ~tag:tag_sensor ~a:(cindex t id) ~b:0 ~c:0
    ~vk:(Bool.to_int b) ~vn:0

let set_sensor t id b = set_sensor_at t ~time:(now t) id b

let output_value t id =
  match Graph.kind t.c_net.p_graph id with
  | Eblock.Kind.Output ->
    let ni = cindex t id in
    Behavior.Compile.value_of_code t.cin_k.(ni).(0) t.cin_n.(ni).(0)
  | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    invalid_arg
      (Printf.sprintf "Engine.output_value: node %d is not a primary output" id)

let output_values t =
  Array.fold_right
    (fun ni acc ->
      ( t.ids.(ni),
        Behavior.Compile.value_of_code t.cin_k.(ni).(0) t.cin_n.(ni).(0) )
      :: acc)
    t.c_net.p_outputs []

let port_value t id port =
  let ni = cindex t id in
  let k = t.cout_k.(ni) in
  if port < 0 || port >= Array.length k then
    invalid_arg "Engine.port_value: port out of range";
  Behavior.Compile.value_of_code k.(port) t.cout_n.(ni).(port)

let trace t = Tbuf.to_list t.c_trace

let activation_count t = t.c_totals.(Telemetry.k_activations)

let packet_count t = t.c_totals.(Telemetry.k_packets)

let fault_stats t =
  if t.c_faulted then Some (Telemetry.injected t.c_tel) else None

let link_strikes t =
  let acc = ref [] in
  if t.c_faulted then
    for ei = Array.length t.e_rec - 1 downto 0 do
      let k = ref 0 in
      for row = Telemetry.l_drops to Telemetry.l_dead do
        k := !k + t.c_tel.links.(row).(ei)
      done;
      if !k > 0 then acc := (t.e_rec.(ei), !k) :: !acc
    done;
  (* dense edges run in fanout order within a port, not destination
     order *)
  List.sort (fun (a, _) (b, _) -> Graph.compare_edge a b) !acc

let node_resets t =
  let acc = ref [] in
  if t.c_faulted then
    for ni = Array.length t.ids - 1 downto 0 do
      let k = t.c_tel.nodes.(Telemetry.n_resets).(ni) in
      if k > 0 then acc := (t.ids.(ni), k) :: !acc
    done;
  !acc

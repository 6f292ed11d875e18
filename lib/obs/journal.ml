(* Search provenance journal and failure flight recorder.  See the
   interface for the design contract; the two load-bearing invariants
   here are (a) the disabled [emit] path touches no allocation — every
   emit site is guarded by [enabled ()], one ref read — and (b) events
   carry logical sequence numbers only, assigned on arrival, so journals
   are deterministic across [--jobs] once {!capture} buffers are
   appended in input order. *)

type event =
  | Run_started of { phase : string; inner : int }
  | Candidate_started of { members : int list }
  | Fit_check of {
      inputs_used : int;
      outputs_used : int;
      pins_ok : bool;
      convex_ok : bool option;
      fits : bool;
    }
  | Ranked of { ranks : (int * int) list }
  | Removed of { node : int; rank : int; d_in : int option; d_out : int option }
  | Accepted of { members : int list; shape : string }
  | Rejected of { node : int; reason : string }
  | Pruned of { depth : int; bins_open : int; bound : float; best : float }
  | Exhaustive_best of { total : int; cost : float }
  | Deadline_expired of { phase : string; budget_s : float; nodes : int }
  | Verify_tier of { members : int list; tier : string; detail : string }
  | Cosim_shrink of { seed : int; round : int; steps : int }
  | Event_limit of { clock : int; queue_depth : int; last_node : int option }
  | Reliability_scored of {
      partitions : int;
      trials : int;
      severity : float;
      cache_hit : bool;
    }

let phase_of_event = function
  | Run_started { phase; _ } | Deadline_expired { phase; _ } -> phase
  | Candidate_started _ | Fit_check _ | Ranked _ | Removed _ | Accepted _
  | Rejected _ ->
    "paredown"
  | Pruned _ | Exhaustive_best _ -> "exhaustive"
  | Verify_tier _ -> "verify"
  | Cosim_shrink _ -> "cosim"
  | Event_limit _ -> "sim"
  | Reliability_scored _ -> "reliability"

let kind_of_event = function
  | Run_started _ -> "run_started"
  | Candidate_started _ -> "candidate_started"
  | Fit_check _ -> "fit_check"
  | Ranked _ -> "ranked"
  | Removed _ -> "removed"
  | Accepted _ -> "accepted"
  | Rejected _ -> "rejected"
  | Pruned _ -> "pruned"
  | Exhaustive_best _ -> "exhaustive_best"
  | Deadline_expired _ -> "deadline_expired"
  | Verify_tier _ -> "verify_tier"
  | Cosim_shrink _ -> "cosim_shrink"
  | Event_limit _ -> "event_limit"
  | Reliability_scored _ -> "reliability_scored"

let nodes_of_event = function
  | Candidate_started { members } -> members
  | Ranked { ranks } -> List.map fst ranks
  | Removed { node; _ } | Rejected { node; _ } -> [ node ]
  | Accepted { members; _ } | Verify_tier { members; _ } -> members
  | Event_limit { last_node = Some node; _ } -> [ node ]
  | Run_started _ | Fit_check _ | Pruned _ | Exhaustive_best _
  | Deadline_expired _ | Cosim_shrink _ | Event_limit { last_node = None; _ }
  | Reliability_scored _ ->
    []

let pp_members ppf members =
  Format.fprintf ppf "{%s}"
    (String.concat " " (List.map string_of_int members))

let pp_opt_int ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some v -> Format.pp_print_int ppf v

let pp_event ppf = function
  | Run_started { phase; inner } ->
    Format.fprintf ppf "run started: %s over %d inner blocks" phase inner
  | Candidate_started { members } ->
    Format.fprintf ppf "candidate started %a" pp_members members
  | Fit_check { inputs_used; outputs_used; pins_ok; convex_ok; fits } ->
    Format.fprintf ppf "fit check: in=%d out=%d pins=%s convex=%s -> %s"
      inputs_used outputs_used
      (if pins_ok then "ok" else "over")
      (match convex_ok with
      | None -> "-"
      | Some true -> "ok"
      | Some false -> "broken")
      (if fits then "fits" else "does not fit")
  | Ranked { ranks } ->
    Format.fprintf ppf "border ranks %s"
      (String.concat ", "
         (List.map
            (fun (node, rank) -> Printf.sprintf "%d:%+d" node rank)
            ranks))
  | Removed { node; rank; d_in; d_out } ->
    Format.fprintf ppf "removed node %d (rank %d, d_in=%a d_out=%a)" node rank
      pp_opt_int d_in pp_opt_int d_out
  | Accepted { members; shape } ->
    Format.fprintf ppf "accepted %a as %s" pp_members members shape
  | Rejected { node; reason } ->
    Format.fprintf ppf "rejected node %d (%s)" node reason
  | Pruned { depth; bins_open; bound; best } ->
    Format.fprintf ppf "pruned at depth %d (%d bins open, bound %g vs best %g)"
      depth bins_open bound best
  | Exhaustive_best { total; cost } ->
    Format.fprintf ppf "new best: %d blocks (cost %g)" total cost
  | Deadline_expired { phase; budget_s; nodes } ->
    Format.fprintf ppf "%s deadline expired after %d nodes (budget %gs)" phase
      nodes budget_s
  | Verify_tier { members; tier; detail } ->
    Format.fprintf ppf "verified %a via %s: %s" pp_members members tier detail
  | Cosim_shrink { seed; round; steps } ->
    Format.fprintf ppf "shrink round %d: %d steps left (seed %d)" round steps
      seed
  | Event_limit { clock; queue_depth; last_node } ->
    Format.fprintf ppf "event limit at clock %d (queue %d, last node %a)" clock
      queue_depth pp_opt_int last_node
  | Reliability_scored { partitions; trials; severity; cache_hit } ->
    Format.fprintf ppf
      "reliability scored: %d partitions -> severity %g (%s)" partitions
      severity
      (if cache_hit then "cache hit"
       else Printf.sprintf "%d trials" trials)

(* ------------------------------------------------------------------ *)
(* Storage: a growable array that, once it reaches a positive
   [capacity], wraps as a ring with [head] pointing at the oldest
   retained event.  [total] never stops counting, so the sequence
   number of retained event [i] is [total - len + i]. *)

type t = {
  mutable store : event array;
  mutable len : int;
  mutable head : int;
  capacity : int; (* 0 = unbounded *)
  mutable total : int;
}

let dummy_event = Run_started { phase = ""; inner = 0 }

let create ?(capacity = 0) () =
  { store = [||]; len = 0; head = 0; capacity; total = 0 }

let push t e =
  if t.capacity > 0 && t.len = t.capacity then begin
    t.store.(t.head) <- e;
    t.head <- (t.head + 1) mod t.capacity
  end
  else begin
    let cap = Array.length t.store in
    if t.len = cap then begin
      let ncap = max 16 (2 * cap) in
      let ncap = if t.capacity > 0 then min ncap t.capacity else ncap in
      let ns = Array.make ncap dummy_event in
      Array.blit t.store 0 ns 0 t.len;
      t.store <- ns
    end;
    t.store.(t.len) <- e;
    t.len <- t.len + 1
  end;
  t.total <- t.total + 1

let events t =
  let base = t.total - t.len in
  let cap = Array.length t.store in
  List.init t.len (fun i -> (base + i, t.store.((t.head + i) mod cap)))

let total t = t.total
let dropped t = t.total - t.len

(* ------------------------------------------------------------------ *)
(* The current journal, the span recording and per-domain capture
   buffers.  [current] and [recording] are set before any worker
   domain spawns and read-only while they run; worker emissions and
   spans always land in a capture buffer (Parallel.map wraps every item
   while either is on), so the shared stores are only mutated by the
   main domain. *)

type span = {
  lane : int;
  name : string;
  args : (string * string) list;
  ts_ns : int64;
  begins : bool;
}

type recording = { t0 : int64; mutable spans : span list (* newest first *) }

type buffer = {
  buf_lane : int;
  mutable decisions : event list; (* newest first *)
  mutable buf_spans : span list; (* newest first *)
  mutable failure : (string * int) option;
      (* the first failure noted, after how many decisions *)
}

let current : t option ref = ref None
let recording : recording option ref = ref None

let capture_slot : buffer option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let enabled () = match !current with Some _ -> true | None -> false

let capturing () = enabled () || Option.is_some !recording

let emit e =
  let slot = Domain.DLS.get capture_slot in
  match !slot with
  | Some buf -> buf.decisions <- e :: buf.decisions
  | None -> ( match !current with Some t -> push t e | None -> ())

let capture ~lane f =
  let slot = Domain.DLS.get capture_slot in
  let saved = !slot in
  let buf =
    { buf_lane = lane; decisions = []; buf_spans = []; failure = None }
  in
  slot := Some buf;
  let r =
    match f () with
    | r -> Ok r
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  slot := saved;
  (r, buf)

let start_spans () = recording := Some { t0 = Clock.now_ns (); spans = [] }

let stop_spans () =
  match !recording with
  | None -> []
  | Some r ->
    recording := None;
    List.rev r.spans

let record_span ~begins name args =
  match !recording with
  | None -> ()
  | Some r -> (
    let ts_ns = Int64.sub (Clock.now_ns ()) r.t0 in
    match !(Domain.DLS.get capture_slot) with
    | Some buf ->
      buf.buf_spans <-
        { lane = buf.buf_lane; name; args; ts_ns; begins } :: buf.buf_spans
    | None -> r.spans <- { lane = 0; name; args; ts_ns; begins } :: r.spans)

let with_span ?(args = []) name f =
  match !recording with
  | None -> f ()
  | Some _ -> (
    record_span ~begins:true name args;
    match f () with
    | result ->
      record_span ~begins:false name [];
      result
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record_span ~begins:false name [];
      Printexc.raise_with_backtrace e bt)

(* ------------------------------------------------------------------ *)
(* JSONL serialisation *)

let schema_name = "paredown-journal"
let schema_version = 1

let num i = Json.Num (float_of_int i)
let num_list l = Json.Arr (List.map num l)
let opt_num = function None -> Json.Null | Some v -> num v
let opt_bool = function None -> Json.Null | Some b -> Json.Bool b

let fields_of_event = function
  | Run_started { phase = _; inner } -> [ ("inner", num inner) ]
  | Candidate_started { members } -> [ ("members", num_list members) ]
  | Fit_check { inputs_used; outputs_used; pins_ok; convex_ok; fits } ->
    [
      ("inputs_used", num inputs_used);
      ("outputs_used", num outputs_used);
      ("pins_ok", Json.Bool pins_ok);
      ("convex_ok", opt_bool convex_ok);
      ("fits", Json.Bool fits);
    ]
  | Ranked { ranks } ->
    [
      ( "ranks",
        Json.Arr (List.map (fun (node, rank) -> num_list [ node; rank ]) ranks)
      );
    ]
  | Removed { node; rank; d_in; d_out } ->
    [
      ("node", num node);
      ("rank", num rank);
      ("d_in", opt_num d_in);
      ("d_out", opt_num d_out);
    ]
  | Accepted { members; shape } ->
    [ ("members", num_list members); ("shape", Json.Str shape) ]
  | Rejected { node; reason } ->
    [ ("node", num node); ("reason", Json.Str reason) ]
  | Pruned { depth; bins_open; bound; best } ->
    [
      ("depth", num depth);
      ("bins_open", num bins_open);
      ("bound", Json.Num bound);
      ("best", Json.Num best);
    ]
  | Exhaustive_best { total; cost } ->
    [ ("total", num total); ("cost", Json.Num cost) ]
  | Deadline_expired { phase = _; budget_s; nodes } ->
    [ ("budget_s", Json.Num budget_s); ("nodes", num nodes) ]
  | Verify_tier { members; tier; detail } ->
    [
      ("members", num_list members);
      ("tier", Json.Str tier);
      ("detail", Json.Str detail);
    ]
  | Cosim_shrink { seed; round; steps } ->
    [ ("seed", num seed); ("round", num round); ("steps", num steps) ]
  | Event_limit { clock; queue_depth; last_node } ->
    [
      ("clock", num clock);
      ("queue_depth", num queue_depth);
      ("last_node", opt_num last_node);
    ]
  | Reliability_scored { partitions; trials; severity; cache_hit } ->
    [
      ("partitions", num partitions);
      ("trials", num trials);
      ("severity", Json.Num severity);
      ("cache_hit", Json.Bool cache_hit);
    ]

let json_of_event ~seq e =
  Json.Obj
    (("seq", num seq)
    :: ("phase", Json.Str (phase_of_event e))
    :: ("kind", Json.Str (kind_of_event e))
    :: fields_of_event e)

let header_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", num schema_version);
      ("total", num t.total);
      ("dropped", num (dropped t));
    ]

let to_jsonl t =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Json.to_string (header_json t));
  Buffer.add_char b '\n';
  List.iter
    (fun (seq, e) ->
      Buffer.add_string b (Json.to_string (json_of_event ~seq e));
      Buffer.add_char b '\n')
    (events t);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing *)

let ( let* ) = Result.bind

let rank_pair v =
  let* pair = Json.list Json.int v in
  match pair with
  | [ node; rank ] -> Ok (node, rank)
  | _ -> Error "[node, rank] pair expected"

let event_of_json j =
  let open Json in
  let get name read = field name read j in
  let* kind = get "kind" string in
  match kind with
  | "run_started" ->
    let* phase = get "phase" string in
    let* inner = get "inner" int in
    Ok (Run_started { phase; inner })
  | "candidate_started" ->
    let* members = get "members" (list int) in
    Ok (Candidate_started { members })
  | "fit_check" ->
    let* inputs_used = get "inputs_used" int in
    let* outputs_used = get "outputs_used" int in
    let* pins_ok = get "pins_ok" bool in
    let* convex_ok = get "convex_ok" (nullable bool) in
    let* fits = get "fits" bool in
    Ok (Fit_check { inputs_used; outputs_used; pins_ok; convex_ok; fits })
  | "ranked" ->
    let* ranks = get "ranks" (list rank_pair) in
    Ok (Ranked { ranks })
  | "removed" ->
    let* node = get "node" int in
    let* rank = get "rank" int in
    let* d_in = get "d_in" (nullable int) in
    let* d_out = get "d_out" (nullable int) in
    Ok (Removed { node; rank; d_in; d_out })
  | "accepted" ->
    let* members = get "members" (list int) in
    let* shape = get "shape" string in
    Ok (Accepted { members; shape })
  | "rejected" ->
    let* node = get "node" int in
    let* reason = get "reason" string in
    Ok (Rejected { node; reason })
  | "pruned" ->
    let* depth = get "depth" int in
    let* bins_open = get "bins_open" int in
    let* bound = get "bound" float in
    let* best = get "best" float in
    Ok (Pruned { depth; bins_open; bound; best })
  | "exhaustive_best" ->
    let* total = get "total" int in
    let* cost = get "cost" float in
    Ok (Exhaustive_best { total; cost })
  | "deadline_expired" ->
    let* phase = get "phase" string in
    let* budget_s = get "budget_s" float in
    let* nodes = get "nodes" int in
    Ok (Deadline_expired { phase; budget_s; nodes })
  | "verify_tier" ->
    let* members = get "members" (list int) in
    let* tier = get "tier" string in
    let* detail = get "detail" string in
    Ok (Verify_tier { members; tier; detail })
  | "cosim_shrink" ->
    let* seed = get "seed" int in
    let* round = get "round" int in
    let* steps = get "steps" int in
    Ok (Cosim_shrink { seed; round; steps })
  | "event_limit" ->
    let* clock = get "clock" int in
    let* queue_depth = get "queue_depth" int in
    let* last_node = get "last_node" (nullable int) in
    Ok (Event_limit { clock; queue_depth; last_node })
  | "reliability_scored" ->
    let* partitions = get "partitions" int in
    let* trials = get "trials" int in
    let* severity = get "severity" float in
    let* cache_hit = get "cache_hit" bool in
    Ok (Reliability_scored { partitions; trials; severity; cache_hit })
  | k -> Error (Printf.sprintf "unknown event kind %S" k)

let entry_of_json j =
  let* seq = Json.field "seq" Json.int j in
  let* e = event_of_json j in
  Ok (seq, e)

(* ------------------------------------------------------------------ *)
(* Post-mortem bundles / flight recorder *)

let bundle_schema_name = "paredown-postmortem"

let post_mortem_json ~reason t =
  let snapshot = Snapshot.capture ?git_rev:(Snapshot.git_rev ()) () in
  Json.Obj
    [
      ("schema", Json.Str bundle_schema_name);
      ("version", num schema_version);
      ("reason", Json.Str reason);
      ("total", num t.total);
      ("dropped", num (dropped t));
      ( "journal",
        Json.Arr (List.map (fun (seq, e) -> json_of_event ~seq e) (events t))
      );
      ("snapshot", Snapshot.to_json snapshot);
    ]

let write_post_mortem ~reason ~out t =
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 (post_mortem_json ~reason t));
      output_char oc '\n')

let armed_out : string option ref = ref None
let dumped = Atomic.make false

let install ?capacity () =
  let t = create ?capacity () in
  current := Some t;
  t

let uninstall () =
  let t = !current in
  current := None;
  armed_out := None;
  t

let arm_post_mortem ~out () =
  if Option.is_none !current then ignore (install ~capacity:4096 ());
  armed_out := Some out;
  Atomic.set dumped false

let note_failure reason =
  match !armed_out with
  | None -> ()
  | Some out -> (
    match !(Domain.DLS.get capture_slot) with
    | Some buf ->
      (* the journal is not whole yet: [append] dumps it here *)
      if buf.failure = None then
        buf.failure <- Some (reason, List.length buf.decisions)
    | None ->
      if not (Atomic.exchange dumped true) then (
        match !current with
        | Some t -> (
          try write_post_mortem ~reason ~out t with Sys_error _ -> ())
        | None -> ()))

let append buf =
  let fail_at i =
    match buf.failure with
    | Some (reason, at) when at = i -> note_failure reason
    | Some _ | None -> ()
  in
  (match !current with
   | Some t ->
     List.iteri (fun i e -> fail_at i; push t e) (List.rev buf.decisions);
     fail_at (List.length buf.decisions)
   | None -> ());
  match !recording with
  | Some r -> r.spans <- buf.buf_spans @ r.spans
  | None -> ()

let record f =
  let own = Option.is_none !current in
  if own then current := Some (create ());
  let r, buf = capture ~lane:0 f in
  append buf;
  if own then current := None;
  match r with
  | Ok v -> (v, List.rev buf.decisions)
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let reset () =
  current := None;
  armed_out := None;
  Atomic.set dumped false

(* ------------------------------------------------------------------ *)
(* Loading *)

type loaded = {
  l_events : (int * event) list;
  l_total : int;
  l_dropped : int;
  l_reason : string option;
}

let loaded_of_bundle j =
  let* () = Json.header ~schema:bundle_schema_name ~version:schema_version j in
  let* reason = Json.field "reason" Json.string j in
  let* l_total = Json.field "total" Json.int j in
  let* l_dropped = Json.field "dropped" Json.int j in
  let* l_events = Json.field "journal" (Json.list entry_of_json) j in
  Ok { l_events; l_total; l_dropped; l_reason = Some reason }

let loaded_of_jsonl header lines =
  let* () = Json.header ~schema:schema_name ~version:schema_version header in
  let* l_total = Json.field "total" Json.int header in
  let* l_dropped = Json.field "dropped" Json.int header in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Json.of_string line with
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg)
      | Ok j ->
        let* entry = entry_of_json j in
        go (entry :: acc) (lineno + 1) rest)
  in
  let* l_events = go [] 2 lines in
  Ok { l_events; l_total; l_dropped; l_reason = None }

let load_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  let schema j = Json.field "schema" Json.string j in
  match lines with
  | [] -> Error "empty journal"
  | first :: rest -> (
    match Json.of_string first with
    | Ok header when schema header = Ok schema_name ->
      loaded_of_jsonl header rest
    | _ -> (
      (* Not a JSONL header line: the whole document must be a
         post-mortem bundle (typically pretty-printed). *)
      match Json.of_string s with
      | Error msg -> Error msg
      | Ok j -> (
        match schema j with
        | Ok name when name = bundle_schema_name -> loaded_of_bundle j
        | Ok name -> Error (Printf.sprintf "unexpected schema %S" name)
        | Error _ -> Error "not a journal or post-mortem bundle")))

let load_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> load_string s
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Queries (the [explain] CLI) *)

let fit_check_count l =
  List.fold_left
    (fun n (_, e) -> match e with Fit_check _ -> n + 1 | _ -> n)
    0 l.l_events

let bump assoc key =
  match List.assoc_opt key assoc with
  | Some n -> (key, n + 1) :: List.remove_assoc key assoc
  | None -> (key, 1) :: assoc

let summary l =
  let by_kind, reject_reasons =
    List.fold_left
      (fun (by_kind, rejects) (_, e) ->
        let by_kind = bump by_kind (phase_of_event e, kind_of_event e) in
        let rejects =
          match e with
          | Rejected { reason; _ } -> bump rejects reason
          | Fit_check { fits = false; pins_ok; _ } ->
            bump rejects (if pins_ok then "fit:convexity" else "fit:pins")
          | _ -> rejects
        in
        (by_kind, rejects))
      ([], []) l.l_events
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "journal: %d decisions (%d dropped by ring)\n" l.l_total
       l.l_dropped);
  (match l.l_reason with
  | Some reason ->
    Buffer.add_string b (Printf.sprintf "post-mortem reason: %s\n" reason)
  | None -> ());
  Buffer.add_char b '\n';
  let sorted = List.sort compare by_kind in
  Buffer.add_string b
    (Metrics.render_table
       ([ "phase"; "kind"; "count" ]
       :: List.map
            (fun ((phase, kind), n) -> [ phase; kind; string_of_int n ])
            sorted));
  if reject_reasons <> [] then begin
    Buffer.add_string b "\nreject reasons\n";
    Buffer.add_string b
      (Metrics.render_table
         ([ "reason"; "count" ]
         :: List.map
              (fun (reason, n) -> [ reason; string_of_int n ])
              (List.sort compare reject_reasons)))
  end;
  Buffer.add_string b
    (Printf.sprintf "\nparedown fit checks: %d\n" (fit_check_count l));
  Buffer.contents b

let render_event (seq, e) =
  Format.asprintf "#%-6d %-10s %a" seq (phase_of_event e) pp_event e

let why ~node l =
  let hits =
    List.filter (fun (_, e) -> List.mem node (nodes_of_event e)) l.l_events
  in
  if hits = [] then
    Printf.sprintf "no recorded decision touched node %d\n" node
  else
    String.concat "" (List.map (fun hit -> render_event hit ^ "\n") hits)

let diff a b =
  let rec go = function
    | [], [] ->
      Printf.sprintf "identical (%d decisions)" (List.length a.l_events)
    | (seq, e) :: _, [] ->
      Printf.sprintf
        "journals diverge at seq %d: B ends after %d decisions\n  A: %s" seq
        (List.length b.l_events)
        (render_event (seq, e))
    | [], (seq, e) :: _ ->
      Printf.sprintf
        "journals diverge at seq %d: A ends after %d decisions\n  B: %s" seq
        (List.length a.l_events)
        (render_event (seq, e))
    | ((sa, ea) as ha) :: ta, ((sb, eb) as hb) :: tb ->
      if sa = sb && ea = eb then go (ta, tb)
      else
        Printf.sprintf "journals diverge at seq %d:\n  A: %s\n  B: %s"
          (min sa sb) (render_event ha) (render_event hb)
  in
  go (a.l_events, b.l_events)

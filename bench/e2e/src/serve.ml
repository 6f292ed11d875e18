(* serve-mixed: a real `paredown serve --jobs 2 --cache F --capacity 256`
   subprocess fed over pipes, one batch of 16 requests plus a drain
   frame at a time.  Table 1 names and relabelled isomorphs hit through
   Canon; random designs drawn from a pool four times the cache
   capacity miss, insert and evict; the store is rewritten at every
   drain.

   The traced run cannot span inside the subprocess, so it replays the
   same request stream in-process through the public calls the server
   makes, in the server's order, and checks that every request gets the
   disposition and output the real server gave it. *)

module P = Service.Protocol
module Cache = Service.Cache
module Graph = Netlist.Graph

let span = Spans.with_span
let capacity = 256
let pool_size = 4 * capacity
let small_pool_size = 64
let randoms_per_batch = 4
let brownout = Result.get_ok (Reliability.Family.of_string "brownout:0.3@40,110,180")
let lambdas = [| 0.; 4.; 64. |]

type kind = Name of int | Iso of int | Other

let relabel offset g =
  let g' =
    List.fold_left
      (fun acc id -> fst (Graph.add ~id:(id + offset) acc (Graph.descriptor g id)))
      Graph.empty (Graph.node_ids g)
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.connect acc
        ~src:(e.src.node + offset, e.src.port)
        ~dst:(e.dst.node + offset, e.dst.port))
    g' (Graph.edges g)

type stream = {
  seed : int;
  table1 : Designs.Design.t array;
  pool : string array;  (** random 20–100-inner designs, as netlist text *)
  small : string array;  (** ≤ 9-inner designs for the exhaustive backend *)
  pool_order : int array;  (** the seed's cycle through [pool] *)
  small_order : int array;
  expected : string array;  (** in-process report per Table 1 design *)
}

(* The design pools are a fixed corpus, the same for every seed, and
   batches walk a seed-shuffled cycle through each pool rather than
   drawing with replacement.  Canon's cost is heavy-tailed (8 of the
   1024 corpus designs take it hundreds of ms), so a per-seed pool, or
   independent draws, would make throughput a property of how many of
   those a run happens to meet.  The seed picks the order and the rest
   of the traffic. *)
let corpus_seed = 0

let make_stream seed =
  let rng = Prng.create corpus_seed in
  let text lo span =
    let r = Prng.split rng in
    Netlist.Textio.to_string
      (Randgen.Generator.generate ~rng:r ~inner:(lo + Prng.int r span) ())
  in
  let pool = Array.init pool_size (fun _ -> text 20 81) in
  let small = Array.init small_pool_size (fun _ -> text 4 6) in
  let table1 = Array.of_list Designs.Library.table1 in
  let shape = Core.Shape.make ~inputs:2 ~outputs:2 () in
  let expected =
    Array.map
      (fun (d : Designs.Design.t) ->
        match
          Service.Oneshot.partition ~backend:Service.Oneshot.Paredown ~shape
            d.Designs.Design.network
        with
        | Service.Oneshot.Done { report; _ } | Service.Oneshot.Expired { report; _ } ->
          report)
      table1
  in
  let order n =
    Array.of_list (Prng.shuffle (Prng.create seed) (List.init n Fun.id))
  in
  { seed; table1; pool; small; pool_order = order pool_size;
    small_order = order small_pool_size; expected }

let request ?design ?design_text op =
  { P.id = ""; op; design; design_text; inputs = 2; outputs = 2 }

let paredown_op = P.Partition { backend = Service.Oneshot.Paredown; deadline_s = None }

(* Batch [b]: (content key, kind, frame) per request, in send order.
   Each batch draws from its own generator, so the stream can be
   regenerated from any batch index. *)
let batch st b =
  let rng = Prng.create (Hashtbl.hash (st.seed, b)) in
  let t1 () = Prng.int rng (Array.length st.table1) in
  let name i = st.table1.(i).Designs.Design.name in
  let reqs =
    List.init 6 (fun _ ->
        let i = t1 () in
        (Name i, request ~design:(name i) paredown_op))
    @ List.init 3 (fun _ ->
          let i = t1 () in
          let g = relabel (100 * (1 + Prng.int rng 9)) st.table1.(i).Designs.Design.network in
          (Iso i, request ~design_text:(Netlist.Textio.to_string g) paredown_op))
    @ List.init randoms_per_batch (fun j ->
          let i = st.pool_order.(((randoms_per_batch * b) + j) mod pool_size) in
          (Other, request ~design_text:st.pool.(i) paredown_op))
    @ [ ( Other,
          request
            ~design_text:st.small.(st.small_order.(b mod small_pool_size))
            (P.Partition { backend = Service.Oneshot.Exhaustive; deadline_s = None }) ) ]
    @ List.init 2 (fun _ ->
          let i = t1 () in
          ( Other,
            request ~design:(name i)
              (P.Weighted
                 { lambda = lambdas.(Prng.int rng (Array.length lambdas));
                   family = brownout; trials = 16; seed = st.seed }) ))
  in
  List.mapi
    (fun k (kind, r) ->
      ( Common.hex (P.render_request r),
        kind,
        P.render_request { r with P.id = Printf.sprintf "b%d-%d" b k } ))
    (Prng.shuffle rng reqs)

let check st kind (r : P.response) =
  if r.P.status <> P.Ok_ then Some ("status " ^ P.status_to_string r.P.status)
  else
    match kind with
    | Name i when r.P.output <> st.expected.(i) ->
      Some "response differs from the in-process Oneshot report"
    | Iso i when Common.inner_line r.P.output <> Common.inner_line st.expected.(i) ->
      Some "isomorph lost its original's inner-block line"
    | _ -> None

let sample st (key, kind, _) ns (r : P.response) =
  {
    Common.s_key = key;
    ns;
    out_digest = Common.hex r.P.output;
    s_error = check st kind r;
    s_blocks = Common.blocks_of_report r.P.output;
    s_tag = P.cache_to_string r.P.cache;
  }

let bad_sample (key, _, _) ns msg =
  { Common.s_key = key; ns; out_digest = ""; s_error = Some msg;
    s_blocks = (0, 0); s_tag = "" }

(* ------------------------------------------------------------------ *)
(* The real server *)

type server = { pid : int; oc : out_channel; ic : in_channel }

let spawn ~paredown ~cache_path =
  (try Sys.remove cache_path with Sys_error _ -> ());
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process paredown
      [| paredown; "serve"; "--jobs"; "2"; "--cache"; cache_path;
         "--capacity"; string_of_int capacity |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  { pid; oc = Unix.out_channel_of_descr in_w; ic = Unix.in_channel_of_descr out_r }

let read_summary srv =
  match P.read_frame srv.ic with
  | Some f when P.is_summary f -> (
    match Obs.Json.of_string f with
    | Ok j ->
      let get k = Option.value ~default:0. (Option.bind (Obs.Json.member k j) Obs.Json.to_float) in
      (get "cache_hits", get "cache_misses", get "evictions")
    | Error e -> failwith ("bad summary frame: " ^ e))
  | _ -> failwith "expected a summary frame"

let stop srv =
  close_out_noerr srv.oc;
  close_in_noerr srv.ic;
  ignore (Unix.waitpid [] srv.pid)

(* Send one batch and time each response from the batch's first byte. *)
let exchange st srv reqs =
  let t0 = Obs.Clock.now_ns () in
  List.iter (fun (_, _, frame) -> P.write_frame srv.oc frame) reqs;
  P.write_frame srv.oc P.drain_frame;
  let samples =
    List.map
      (fun req ->
        match P.read_frame srv.ic with
        | None -> failwith "server closed its output"
        | Some f -> (
          let ns = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) in
          match P.parse_response f with
          | Ok r -> sample st req ns r
          | Error e -> bad_sample req ns ("bad response frame: " ^ e)))
      reqs
  in
  let busy = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) in
  (samples, busy, read_summary srv)

(* ------------------------------------------------------------------ *)
(* In-process replay of [Service.Server.run], one batch at a time. *)

type job = {
  k : int;  (** request index in the batch: the span op id *)
  request : P.request;
  g : Graph.t;
  shape : Core.Shape.t;
  key : string;
  canon : Service.Canon.t option;
}

let replay_payload j payload =
  span "service.cache.replay" @@ fun () ->
  match j.request.P.op with
  | P.Partition _ -> (
    match j.canon with
    | None -> None
    | Some canon -> (
      match Cache.solution_of_payload canon payload with
      | exception _ -> None
      | solution -> (
        match Core.Solution.check j.g solution with
        | Error _ -> None
        | Ok () ->
          Some (Service.Oneshot.solution_report j.g solution, Cache.payload_work payload))))
  | P.Weighted _ -> Cache.weighted_of_payload payload

let compute j =
  match
    span "service.compute" (fun () ->
        match j.request.P.op with
        | P.Partition { backend; deadline_s } ->
          Service.Oneshot.partition ~backend ~shape:j.shape ?deadline_s j.g
        | P.Weighted { lambda; family; trials; seed } ->
          Service.Oneshot.weighted ~lambda ~family ~trials ~seed ~shape:j.shape j.g)
  with
  | exception e -> Error (Printexc.to_string e)
  | Service.Oneshot.Expired { report; _ } -> Error ("deadline expired: " ^ report)
  | Service.Oneshot.Done { solution; report; work } ->
    let payload =
      match (j.request.P.op, j.canon) with
      | P.Partition _, Some canon -> Some (Cache.partition_payload canon solution work)
      | P.Weighted _, _ -> Some (Cache.weighted_payload ~report work)
      | _ -> None
    in
    Ok (report, work, payload)

let response j status cache output work =
  { P.r_id = j.request.P.id; status; cache; output; work; elapsed_ns = Obs.Json.Null }

let replayer st ~dir =
  let cache_path = Filename.concat dir "replay-cache.json" in
  let in_path = Filename.concat dir "replay-in.bin" in
  let out_path = Filename.concat dir "replay-out.bin" in
  (try Sys.remove cache_path with Sys_error _ -> ());
  let cache, _ = Cache.create ~capacity ~path:cache_path () in
  let oc = open_out_bin out_path in
  fun b ->
    let reqs = batch st b in
    let w = open_out_bin in_path in
    List.iter (fun (_, _, f) -> P.write_frame w f) reqs;
    P.write_frame w P.drain_frame;
    close_out w;
    seek_out oc 0;
    let ic = open_in_bin in_path in
    let t0 = Obs.Clock.now_ns () in
    let protocol f = span "service.protocol" f in
    let rec read k acc =
      Spans.set_op k;
      match protocol (fun () -> Option.map P.parse_request (P.read_frame ic)) with
      | Some (P.Request r) -> read (k + 1) (r :: acc)
      | Some (P.Invalid _) -> failwith "replay: invalid request"
      | Some P.Drain | None -> List.rev acc
    in
    let requests = read 0 [] in
    let jobs =
      List.mapi
        (fun k (r : P.request) ->
          Spans.set_op k;
          let g =
            span "service.resolve" (fun () ->
                Service.Oneshot.resolve_network ?design:r.P.design
                  ?design_text:r.P.design_text ())
          in
          let shape = Core.Shape.make ~inputs:r.P.inputs ~outputs:r.P.outputs () in
          span "service.canon" @@ fun () ->
          match r.P.op with
          | P.Partition { backend; deadline_s } ->
            let canon = Service.Canon.of_graph g in
            { k; request = r; g; shape; canon = Some canon;
              key = Cache.partition_key ~backend ~shape ~deadline_s canon }
          | P.Weighted { lambda; family; trials; seed } ->
            { k; request = r; g; shape; canon = None;
              key = Cache.weighted_key ~lambda ~family ~trials ~seed ~shape g })
        requests
    in
    let looked_up =
      List.map
        (fun j ->
          Spans.set_op j.k;
          match
            Option.bind (span "service.cache.find" (fun () -> Cache.find cache j.key))
              (replay_payload j)
          with
          | Some hit -> (j, Some hit)
          | None -> (j, None))
        jobs
    in
    let computed = Hashtbl.create 16 in
    List.iter
      (fun (j, hit) ->
        if hit = None && not (Hashtbl.mem computed j.key) then begin
          Spans.set_op j.k;
          let c = compute j in
          (match c with
           | Ok (_, _, Some p) -> span "service.cache.insert" (fun () -> Cache.insert cache j.key p)
           | _ -> ());
          Hashtbl.replace computed j.key c
        end)
      looked_up;
    let served = Hashtbl.create 16 in
    let written =
      List.map
        (fun (j, hit) ->
          Spans.set_op j.k;
          let r =
            match hit with
            | Some (report, work) -> response j P.Ok_ P.Hit report work
            | None -> (
              match Hashtbl.find computed j.key with
              | Error e -> response j P.Error_ P.Uncached e []
              | Ok (report, work, payload) ->
                if Hashtbl.mem served j.key then
                  match Option.bind payload (replay_payload j) with
                  | Some (r, w) -> response j P.Ok_ P.Hit r w
                  | None -> response j P.Ok_ P.Hit report work
                else begin
                  Hashtbl.replace served j.key ();
                  response j P.Ok_ P.Miss report work
                end)
          in
          protocol (fun () -> P.write_frame oc (P.render_response r));
          (r, Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0)))
        looked_up
    in
    Spans.set_op (-1);
    let s = Cache.stats cache in
    protocol (fun () ->
        P.write_frame oc
          (P.render_summary
             { P.requests = 0; hits = s.Cache.hits; misses = s.Cache.misses;
               rejected = 0; deadline_expired = 0; errors = 0;
               cache_entries = s.Cache.entries; evictions = s.Cache.evictions }));
    span "service.cache.save" (fun () -> Cache.save cache);
    let busy = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) in
    close_in ic;
    let samples = List.map2 (fun req (r, ns) -> sample st req ns r) reqs written in
    { Common.samples; busy_ns = busy }

(* ------------------------------------------------------------------ *)

let setup ~paredown ~seed ~dir =
  let st = make_stream seed in
  let srv = spawn ~paredown ~cache_path:(Filename.concat dir "serve-cache.json") in
  P.write_frame srv.oc P.drain_frame;
  ignore (read_summary srv);
  let warmup = 64 in
  (* Per batch the server ran: dispositions and output digests, for the
     replay to reproduce; and the cumulative summary frames. *)
  let server_runs = Hashtbl.create 256 in
  let summaries = Hashtbl.create 256 in
  let last = ref (-1) in
  let key_of (s : Common.sample) = (s.Common.s_tag, s.Common.out_digest) in
  let run_unit b =
    let samples, busy, summary = exchange st srv (batch st b) in
    Hashtbl.replace server_runs b (List.map key_of samples);
    Hashtbl.replace summaries b summary;
    last := b;
    { Common.samples; busy_ns = busy }
  in
  let replay () =
    let r = replayer st ~dir in
    fun b ->
      let u = r b in
      (match Hashtbl.find_opt server_runs b with
       | Some expected when expected <> List.map key_of u.Common.samples ->
         Common.gate_fail
           (Printf.sprintf "replay of batch %d disagrees with the server" b)
       | _ -> ());
      u
  in
  let extras () =
    match (Hashtbl.find_opt summaries (warmup - 1), Hashtbl.find_opt summaries !last) with
    | Some (h0, m0, e0), Some (h1, m1, e1) when !last >= warmup ->
      let batches = float (!last - warmup + 1) in
      [ ("service.cache_hit_ratio", (h1 -. h0) /. max 1. (h1 -. h0 +. m1 -. m0));
        ("service.evictions_per_batch", (e1 -. e0) /. batches);
        ("service.unique_misses_per_batch", (m1 -. m0) /. batches) ]
    | _ -> []
  in
  {
    Common.warmup;
    run_unit;
    replay = Some replay;
    input_digest =
      Common.hex
        (String.concat ""
           (List.concat_map
              (fun b -> List.map (fun (_, _, f) -> f) (batch st b))
              (List.init (warmup + 1) Fun.id)));
    extras;
    peak_rss_mb = (fun () -> Common.vm_hwm_mb (Some srv.pid));
    finish = (fun () -> stop srv);
  }

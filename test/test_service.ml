(* The batch synthesis service: canonical fingerprints, the solution
   cache, and the serve/submit protocol.  The load-bearing promises
   under test: a resubmission is a byte-identical cache hit, an
   isomorphic relabelling hits too, a deadline expiry answers without
   killing the batch, overflow is rejected with a reason, responses
   equal the one-shot CLI's bytes, and the whole stream is invariant
   under --jobs. *)

module Graph = Netlist.Graph
module P = Service.Protocol

(* Response times must be masked or the jobs-1-vs-jobs-4 stream diff
   below would be vacuously unequal. *)
let () = Unix.putenv "PAREDOWN_STABLE_TIMES" "1"

(* ------------------------------------------------------------------ *)
(* Harness: run the server over an in-memory batch via temp files. *)

let write_frames path frames =
  let oc = open_out_bin path in
  List.iter (P.write_frame oc) frames;
  close_out oc

let read_frames path =
  let ic = open_in_bin path in
  let rec go acc =
    match P.read_frame ic with
    | None -> List.rev acc
    | Some f -> go (f :: acc)
  in
  let frames = go [] in
  close_in ic;
  frames

let serve ?(config = Service.Server.default_config) frames =
  let req = Filename.temp_file "svc_req" ".bin" in
  let resp = Filename.temp_file "svc_resp" ".bin" in
  write_frames req frames;
  let ic = open_in_bin req in
  let oc = open_out_bin resp in
  let summary = Service.Server.run ~config ic oc in
  close_in ic;
  close_out oc;
  let out = read_frames resp in
  Sys.remove req;
  Sys.remove resp;
  (summary, out)

let responses frames =
  List.filter_map
    (fun f ->
      if P.is_summary f then None
      else
        match P.parse_response f with
        | Ok r -> Some r
        | Error e -> Alcotest.failf "bad response frame: %s" e)
    frames

let partition_request ?(backend = Service.Oneshot.Paredown) ?deadline_s ~id
    design =
  P.render_request
    {
      P.id;
      op = P.Partition { backend; deadline_s };
      design = Some design;
      design_text = None;
      inputs = 2;
      outputs = 2;
    }

let text_request ~id text =
  P.render_request
    {
      P.id;
      op = P.Partition { backend = Service.Oneshot.Paredown; deadline_s = None };
      design = None;
      design_text = Some text;
      inputs = 2;
      outputs = 2;
    }

let oneshot_report ?(backend = Service.Oneshot.Paredown) g =
  let shape = Core.Shape.make ~inputs:2 ~outputs:2 () in
  match Service.Oneshot.partition ~backend ~shape g with
  | Service.Oneshot.Done { report; _ }
  | Service.Oneshot.Expired { report; _ } ->
    report

let find_design name =
  match Designs.Library.find name with
  | Some d -> d.Designs.Design.network
  | None -> Alcotest.failf "library design %S missing" name

let check_cache = Alcotest.(check string)

let cache_of (r : P.response) = P.cache_to_string r.P.cache
let status_of (r : P.response) = P.status_to_string r.P.status

(* ------------------------------------------------------------------ *)
(* Resubmission: the second identical request is a byte-identical hit,
   in-batch and across a persisted restart. *)

let test_resubmit_hits () =
  let frames =
    [
      partition_request ~id:"a" "Podium Timer 3";
      partition_request ~id:"b" "Podium Timer 3";
      P.drain_frame;
    ]
  in
  let summary, out = serve frames in
  (match responses out with
   | [ a; b ] ->
     check_cache "first is a miss" "miss" (cache_of a);
     check_cache "resubmission is a hit" "hit" (cache_of b);
     Alcotest.(check string) "hit replays the same bytes" a.P.output b.P.output
   | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  Alcotest.(check int) "one miss" 1 summary.P.misses;
  Alcotest.(check int) "one hit" 1 summary.P.hits

let test_resubmit_across_restart () =
  let store = Filename.temp_file "svc_cache" ".json" in
  Sys.remove store;
  let config =
    { Service.Server.default_config with cache_path = Some store }
  in
  let frames = [ partition_request ~id:"a" "Noise At Night Detector"; P.drain_frame ] in
  let _, out1 = serve ~config frames in
  let s2, out2 = serve ~config frames in
  Alcotest.(check bool) "store file written" true (Sys.file_exists store);
  Alcotest.(check int) "restart serves from disk" 1 s2.P.hits;
  Alcotest.(check int) "no recompute" 0 s2.P.misses;
  (match (responses out1, responses out2) with
   | [ a ], [ b ] ->
     Alcotest.(check string) "byte-identical across restart" a.P.output
       b.P.output
   | _ -> Alcotest.fail "expected one response per run");
  (* A corrupted store must warn and start empty, never crash. *)
  let oc = open_out store in
  output_string oc "{\"schema\":\"something-else\"}";
  close_out oc;
  let warned = ref [] in
  let config =
    { config with Service.Server.log = (fun m -> warned := m :: !warned) }
  in
  let s3, _ = serve ~config frames in
  Alcotest.(check int) "corrupt store recomputes" 1 s3.P.misses;
  Alcotest.(check bool) "and warns" true
    (List.exists
       (fun m ->
         String.length m >= 5 && String.sub m 0 5 = "cache")
       !warned);
  Sys.remove store

(* ------------------------------------------------------------------ *)
(* Isomorphic relabelling: same structure under fresh node ids hits the
   canonical key and replays a valid solution in the new ids. *)

let relabel offset g =
  let g' =
    List.fold_left
      (fun acc id ->
        let n = Graph.node g id in
        fst (Graph.add ~id:(id + offset) acc n.Graph.descriptor))
      Graph.empty (Graph.node_ids g)
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.connect acc
        ~src:(e.src.node + offset, e.src.port)
        ~dst:(e.dst.node + offset, e.dst.port))
    g' (Graph.edges g)

let quality_lines report =
  (* the inner-block and cost lines — id-independent solution quality *)
  String.split_on_char '\n' report
  |> List.filter (fun l ->
         String.length l > 0
         && (String.sub l 0 5 = "inner" || String.sub l 0 7 = "network"))

let test_relabel_hits () =
  let g = find_design "Podium Timer 3" in
  let g' = relabel 100 g in
  let frames =
    [
      text_request ~id:"orig" (Netlist.Textio.to_string g);
      text_request ~id:"relabeled" (Netlist.Textio.to_string g');
      P.drain_frame;
    ]
  in
  let summary, out = serve frames in
  Alcotest.(check int) "relabelling is the hit" 1 summary.P.hits;
  Alcotest.(check int) "only the original computes" 1 summary.P.misses;
  match responses out with
  | [ orig; rel ] ->
    Alcotest.(check string) "relabelled status ok" "ok" (status_of rel);
    check_cache "relabelled served from cache" "hit" (cache_of rel);
    Alcotest.(check (list string))
      "equal solution quality" (quality_lines orig.P.output)
      (quality_lines rel.P.output);
    Alcotest.(check string) "ids in the reply belong to the request"
      (oneshot_report g') rel.P.output
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

let test_canon_relabel_digest () =
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let c = Service.Canon.of_graph g in
      let c' = Service.Canon.of_graph (relabel 1000 g) in
      Alcotest.(check bool)
        (d.Designs.Design.name ^ " canonises exactly")
        true
        (Service.Canon.exact c);
      Alcotest.(check string)
        (d.Designs.Design.name ^ " digest is label-free")
        (Service.Canon.digest c)
        (Service.Canon.digest c'))
    Designs.Library.table1

(* ------------------------------------------------------------------ *)
(* Canon against the list-based oracle it replaced, and against
   relabellings that change id order.  Relabelling by an offset keeps
   id order, so the id-order fallback would pass it too; a random
   permutation of ids does not. *)

(* 200 seeded random designs of 20–100 inner blocks *)
let random_designs =
  lazy
    (let rng = Prng.create 12 in
     List.init 200 (fun i ->
         let r = Prng.split rng in
         ( Printf.sprintf "random %d" i,
           Randgen.Generator.generate ~rng:r ~inner:(20 + Prng.int r 81) () )))

(* Colour refinement cannot tell a directed 6-cycle from two directed
   3-cycles: every node of their disjoint union gets one colour, yet a
   6-cycle node is not automorphic to a 3-cycle node.  Only the
   individualization search separates them, so the result must not
   depend on which member it happens to try first, and it must still
   equal the oracle's. *)
let wl_hard () =
  let g =
    List.fold_left
      (fun acc id -> fst (Graph.add ~id acc Eblock.Catalog.not_gate))
      Graph.empty (List.init 12 Fun.id)
  in
  List.fold_left
    (fun acc (src, dst) -> Graph.connect acc ~src:(src, 0) ~dst:(dst, 0))
    g
    [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 0);
      (6, 7); (7, 8); (8, 6); (9, 10); (10, 11); (11, 9) ]

let canon_designs () =
  List.map
    (fun d -> (d.Designs.Design.name, d.Designs.Design.network))
    Designs.Library.table1
  @ (("WL-hard cycles", wl_hard ()) :: Lazy.force random_designs)

let canon_order c =
  List.init (Service.Canon.size c) (Service.Canon.id_of c)

let test_canon_matches_oracle () =
  let compared = ref 0 in
  List.iter
    (fun (name, g) ->
      let c = Service.Canon.of_graph g in
      Alcotest.(check bool) (name ^ " canonises exactly") true
        (Service.Canon.exact c);
      let o = Canon_oracle.of_graph g in
      if Canon_oracle.exact o then begin
        incr compared;
        Alcotest.(check string) (name ^ " digest = oracle")
          (Canon_oracle.digest o) (Service.Canon.digest c);
        Alcotest.(check (list int)) (name ^ " order = oracle")
          (List.init (Canon_oracle.size o) (Canon_oracle.id_of o))
          (canon_order c)
      end)
    (canon_designs ());
  (* the oracle overruns its budget on a few percent at most *)
  Alcotest.(check bool) "oracle finished on nearly all designs" true
    (!compared >= 200)

(* The batch-server benchmark corpus: 1024 designs of 20–100 inner
   blocks from seed 0, one split per design, as netlist text.  The
   oracle's search overruns its budget on the six listed; Canon must
   finish on every one. *)
let serve_corpus () =
  let rng = Prng.create 0 in
  Array.init 1024 (fun _ ->
      let r = Prng.split rng in
      let g = Randgen.Generator.generate ~rng:r ~inner:(20 + Prng.int r 81) () in
      snd (Netlist.Textio.of_string (Netlist.Textio.to_string g)))

let oracle_fallbacks = [ 16; 24; 375; 484; 606; 764 ]

let test_canon_exact_on_corpus () =
  let corpus = serve_corpus () in
  Array.iteri
    (fun i g ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus design %d canonises exactly" i)
        true
        (Service.Canon.exact (Service.Canon.of_graph g)))
    corpus;
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "oracle falls back on corpus design %d" i)
        false
        (Canon_oracle.exact (Canon_oracle.of_graph corpus.(i))))
    oracle_fallbacks

let permute rng g =
  let ids = Graph.node_ids g in
  let image = Hashtbl.create 64 in
  List.iter2 (Hashtbl.replace image) ids (Prng.shuffle rng ids);
  let map id = Hashtbl.find image id in
  let g' =
    List.fold_left
      (fun acc id ->
        fst (Graph.add ~id:(map id) acc (Graph.node g id).Graph.descriptor))
      Graph.empty ids
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      Graph.connect acc
        ~src:(map e.src.node, e.src.port)
        ~dst:(map e.dst.node, e.dst.port))
    g' (Graph.edges g)

let kinds_in_id_order g =
  List.map (fun id -> (Graph.descriptor g id).Eblock.Descriptor.name)
    (Graph.node_ids g)

let test_canon_permutation_digest () =
  let rng = Prng.create 5 in
  let moved = ref 0 in
  List.iter
    (fun (name, g) ->
      let g' = permute (Prng.split rng) g in
      let c = Service.Canon.of_graph g and c' = Service.Canon.of_graph g' in
      if kinds_in_id_order g' <> kinds_in_id_order g then incr moved;
      Alcotest.(check bool) (name ^ " relabelled canonises exactly") true
        (Service.Canon.exact c');
      Alcotest.(check string)
        (name ^ " digest survives a permutation of ids")
        (Service.Canon.digest c) (Service.Canon.digest c'))
    (canon_designs ());
  (* the permutations really reorder the blocks, so id order is no help *)
  Alcotest.(check bool) "permutations reorder the blocks" true (!moved >= 200)

(* ------------------------------------------------------------------ *)
(* Deadline expiry answers that request and nothing else. *)

let test_deadline_expiry_survives () =
  let frames =
    [
      partition_request ~id:"slow" ~backend:Service.Oneshot.Exhaustive
        ~deadline_s:1e-6 "Timed Passage";
      partition_request ~id:"fast" "Podium Timer 3";
      P.drain_frame;
      (* a second batch proves the server outlives the expiry *)
      partition_request ~id:"after" "Podium Timer 3";
      P.drain_frame;
    ]
  in
  let summary, out = serve frames in
  (match responses out with
   | [ slow; fast; after ] ->
     Alcotest.(check string) "expired status" "deadline_expired"
       (status_of slow);
     check_cache "expired result is not cached" "uncached" (cache_of slow);
     Alcotest.(check string) "batchmate still answers" "ok" (status_of fast);
     Alcotest.(check string) "server survives into the next batch" "hit"
       (cache_of after)
   | rs -> Alcotest.failf "expected 3 responses, got %d" (List.length rs));
  Alcotest.(check int) "counted once" 1 summary.P.deadline_expired

(* ------------------------------------------------------------------ *)
(* Backpressure: a bounded queue rejects the overflow with a reason. *)

let test_backpressure () =
  let config = { Service.Server.default_config with queue = 3 } in
  let frames =
    List.map
      (fun i -> partition_request ~id:(Printf.sprintf "r%d" i) "Podium Timer 3")
      [ 1; 2; 3; 4; 5 ]
    @ [ P.drain_frame ]
  in
  let summary, out = serve ~config frames in
  let rs = responses out in
  Alcotest.(check int) "five responses" 5 (List.length rs);
  Alcotest.(check (list string))
    "first three accepted, last two rejected"
    [ "ok"; "ok"; "ok"; "rejected"; "rejected" ]
    (List.map status_of rs);
  Alcotest.(check int) "summary counts them" 2 summary.P.rejected;
  let last = List.nth rs 4 in
  Alcotest.(check string) "reason names the bound"
    "queue full (capacity 3)" last.P.output

(* ------------------------------------------------------------------ *)
(* Byte-identity against the one-shot path, on every Table 1 design and
   both fast backends. *)

let test_table1_byte_identity () =
  List.iter
    (fun backend ->
      List.iter
        (fun d ->
          let name = d.Designs.Design.name in
          let frames =
            [
              partition_request ~backend ~id:"x" name;
              partition_request ~backend ~id:"y" name;
              P.drain_frame;
            ]
          in
          let _, out = serve frames in
          match responses out with
          | [ x; y ] ->
            let expected = oneshot_report ~backend d.Designs.Design.network in
            Alcotest.(check string)
              (name ^ ": served = one-shot") expected x.P.output;
            check_cache (name ^ ": resubmit hits") "hit" (cache_of y);
            Alcotest.(check string)
              (name ^ ": hit = one-shot") expected y.P.output
          | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))
        Designs.Library.table1)
    [ Service.Oneshot.Paredown; Service.Oneshot.Aggregation ]

(* ------------------------------------------------------------------ *)
(* The full response stream is invariant under --jobs. *)

let test_jobs_invariance () =
  let frames =
    List.concat_map
      (fun d ->
        [
          partition_request ~id:(d.Designs.Design.name ^ "/p")
            d.Designs.Design.name;
          partition_request ~backend:Service.Oneshot.Aggregation
            ~id:(d.Designs.Design.name ^ "/a")
            d.Designs.Design.name;
        ])
      Designs.Library.table1
    @ [ P.drain_frame ]
  in
  let run jobs =
    serve ~config:{ Service.Server.default_config with jobs } frames
  in
  let s1, out1 = run 1 in
  let s4, out4 = run 4 in
  Alcotest.(check (list string)) "streams byte-identical across jobs"
    out1 out4;
  Alcotest.(check int) "same misses" s1.P.misses s4.P.misses;
  Alcotest.(check int) "same hits" s1.P.hits s4.P.hits

(* A request that raises answers [error] and spares the batch — and the
   failure report is the lowest-index one, like the sequential path. *)
let test_error_isolated () =
  let frames =
    [
      partition_request ~id:"bad" "No Such Design";
      partition_request ~id:"good" "Podium Timer 3";
      P.drain_frame;
    ]
  in
  let summary, out = serve frames in
  (match responses out with
   | [ bad; good ] ->
     Alcotest.(check string) "bad request errors" "error" (status_of bad);
     Alcotest.(check string) "good request unaffected" "ok" (status_of good)
   | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  Alcotest.(check int) "counted" 1 summary.P.errors

(* A weighted request's [trials] must be a whole number within
   [P.max_trials]; anything else is rejected with a reason that names
   the bound, instead of being truncated or run. *)
let weighted_frame trials =
  Printf.sprintf
    {|{"id":"w","op":"weighted","design":"Podium Timer 3","trials":%s}|}
    trials

let test_trials_bounded () =
  let bound = string_of_int P.max_trials in
  List.iter
    (fun bad ->
      match P.parse_request (weighted_frame bad) with
      | P.Invalid { id; reason } ->
        Alcotest.(check string) (bad ^ ": id kept") "w" id;
        Alcotest.(check bool)
          (Printf.sprintf "%s: reason %S names the bound" bad reason)
          true
          (Testlib.contains reason bound)
      | P.Request _ | P.Drain -> Alcotest.failf "trials %s accepted" bad)
    [ "1000000000000"; "-5"; "0"; "2.5"; "10001"; "1e300" ];
  List.iter
    (fun (text, expected) ->
      match P.parse_request text with
      | P.Request { op = P.Weighted { trials; _ }; _ } ->
        Alcotest.(check int) text expected trials
      | P.Request _ | P.Drain | P.Invalid _ ->
        Alcotest.failf "%s: not a weighted request" text)
    [
      (weighted_frame "1", 1);
      (weighted_frame "16", 16);
      (weighted_frame "2.0", 2);
      (weighted_frame bound, P.max_trials);
      ( {|{"id":"w","op":"weighted","design":"Podium Timer 3"}|},
        P.default_trials );
    ]

let test_trials_rejected_by_server () =
  let frames =
    [ weighted_frame "1000000000000";
      partition_request ~id:"good" "Podium Timer 3";
      P.drain_frame ]
  in
  let summary, out = serve frames in
  (match responses out with
   | [ bad; good ] ->
     Alcotest.(check string) "oversized request rejected" "rejected"
       (status_of bad);
     Alcotest.(check bool) "reason names the bound" true
       (Testlib.contains bad.P.output (string_of_int P.max_trials));
     Alcotest.(check string) "good request unaffected" "ok" (status_of good)
   | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  Alcotest.(check int) "counted as a rejection" 1 summary.P.rejected

(* [inputs], [outputs] and [seed] are never truncated: a value that is
   not a whole number in the field's range makes the request Invalid,
   with a reason that names the field. *)
let field_frame ?(op = "partition") field value =
  Printf.sprintf {|{"id":"f","op":"%s","design":"Podium Timer 3","%s":%s}|}
    op field value

let expect_invalid field frame =
  match P.parse_request frame with
  | P.Invalid { id; reason } ->
    Alcotest.(check string) (frame ^ ": id kept") "f" id;
    Alcotest.(check bool)
      (Printf.sprintf "%s: reason %S names %s" frame reason field)
      true
      (Testlib.contains reason field)
  | P.Request _ | P.Drain -> Alcotest.failf "%s accepted" frame

let expect_request frame check =
  match P.parse_request frame with
  | P.Request r -> check r
  | P.Invalid { reason; _ } -> Alcotest.failf "%s rejected: %s" frame reason
  | P.Drain -> Alcotest.failf "%s read as a drain" frame

let test_fractional_pins_rejected () =
  List.iter
    (fun (op, field) ->
      List.iter
        (fun v -> expect_invalid field (field_frame ~op field v))
        [ "2.5"; "1.000001"; "\"3\"" ])
    [ ("partition", "inputs"); ("partition", "outputs");
      ("weighted", "inputs"); ("weighted", "outputs") ];
  expect_request (field_frame "inputs" "3.0") (fun r ->
      Alcotest.(check int) "a whole float is the integer" 3 r.P.inputs)

let test_nonpositive_pins_rejected () =
  List.iter
    (fun field ->
      List.iter
        (fun v -> expect_invalid field (field_frame field v))
        [ "0"; "-2" ])
    [ "inputs"; "outputs" ];
  (* through the server: a rejection with the field's name, not the
     shape constructor's error *)
  let frames =
    [ field_frame "inputs" "0";
      partition_request ~id:"good" "Podium Timer 3";
      P.drain_frame ]
  in
  let summary, out = serve frames in
  (match responses out with
   | [ bad; good ] ->
     Alcotest.(check string) "zero inputs rejected" "rejected" (status_of bad);
     Alcotest.(check bool) "reason names the field" true
       (Testlib.contains bad.P.output "inputs");
     Alcotest.(check string) "good request unaffected" "ok" (status_of good)
   | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
  Alcotest.(check int) "counted as a rejection" 1 summary.P.rejected

let test_fractional_seed_rejected () =
  List.iter
    (fun v -> expect_invalid "seed" (field_frame ~op:"weighted" "seed" v))
    [ "1.9"; "-0.5" ];
  expect_request (field_frame ~op:"weighted" "seed" "-7") (function
    | { P.op = P.Weighted { seed; _ }; _ } ->
      Alcotest.(check int) "negative whole seeds are seeds" (-7) seed
    | _ -> Alcotest.fail "not a weighted request")

let test_inexact_seed_rejected () =
  List.iter
    (fun v -> expect_invalid "seed" (field_frame ~op:"weighted" "seed" v))
    [ "9007199254740994"; "-9007199254740994"; "1e300" ];
  List.iter
    (fun (text, expected) ->
      expect_request (field_frame ~op:"weighted" "seed" text) (function
        | { P.op = P.Weighted { seed; _ }; _ } ->
          Alcotest.(check int) text expected seed
        | _ -> Alcotest.fail "not a weighted request"))
    [ ("9007199254740992", 1 lsl 53); ("-9007199254740992", -(1 lsl 53)) ]

(* A weighted request searches on the requested block shape: at λ = 0
   no dissolution pays, so below its header line it reports what the
   partition op reports at the same shape. *)
let test_weighted_honours_shape () =
  let family = Result.get_ok (Reliability.Family.of_string "drop:0.05") in
  let request ~id ~size op =
    P.render_request
      {
        P.id;
        op;
        design = Some "Two-Zone Security";
        design_text = None;
        inputs = size;
        outputs = size;
      }
  in
  List.iter
    (fun size ->
      let frames =
        [
          request ~id:"p" ~size
            (P.Partition
               { backend = Service.Oneshot.Paredown; deadline_s = None });
          request ~id:"w" ~size
            (P.Weighted { lambda = 0.; family; trials = 2; seed = 1 });
          P.drain_frame;
        ]
      in
      match responses (snd (serve frames)) with
      | [ p; w ] ->
        let below_header text =
          match String.index_opt text '\n' with
          | Some i -> String.sub text (i + 1) (String.length text - i - 1)
          | None -> text
        in
        Alcotest.(check string)
          (Printf.sprintf "%dx%d: weighted λ=0 = partition" size size)
          p.P.output (below_header w.P.output)
      | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs))
    [ 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Loader robustness: mutants of a saved store (two partition entries,
   one under each backend) load as Ok or Error, never raise. *)

let test_cache_loader_robustness =
  let store = Filename.temp_file "svc_cache" ".json" in
  Sys.remove store;
  at_exit (fun () -> try Sys.remove store with Sys_error _ -> ());
  let config =
    { Service.Server.default_config with cache_path = Some store }
  in
  ignore
    (serve ~config
       [
         partition_request ~id:"a" "Noise At Night Detector";
         partition_request ~backend:Service.Oneshot.Aggregation ~id:"b"
           "Podium Timer 3";
         P.drain_frame;
       ]);
  let doc = In_channel.with_open_bin store In_channel.input_all in
  Testlib.loader_never_raises ~count:5000 ~seed:23 ~name:"mutated store" doc
    (fun text ->
      Out_channel.with_open_bin store (fun oc -> output_string oc text);
      snd (Service.Cache.create ~path:store ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "service"
    [
      ( "cache",
        [
          Alcotest.test_case "resubmit hits byte-identically" `Quick
            test_resubmit_hits;
          Alcotest.test_case "persisted store survives restart" `Quick
            test_resubmit_across_restart;
          Alcotest.test_case "isomorphic relabelling hits" `Quick
            test_relabel_hits;
          Alcotest.test_case "canonical digest is label-free on Table 1"
            `Quick test_canon_relabel_digest;
          test_cache_loader_robustness;
        ] );
      ( "canon",
        [
          Alcotest.test_case "same digest and order as the oracle" `Quick
            test_canon_matches_oracle;
          Alcotest.test_case "exact on the serve corpus" `Quick
            test_canon_exact_on_corpus;
          Alcotest.test_case "digest survives random id permutations"
            `Quick test_canon_permutation_digest;
        ] );
      ( "server",
        [
          Alcotest.test_case "deadline expiry answers, server survives"
            `Quick test_deadline_expiry_survives;
          Alcotest.test_case "bounded queue rejects with reason" `Quick
            test_backpressure;
          Alcotest.test_case "weighted request honours its shape" `Quick
            test_weighted_honours_shape;
          Alcotest.test_case "weighted trials bounded" `Quick
            test_trials_bounded;
          Alcotest.test_case "out-of-range trials rejected" `Quick
            test_trials_rejected_by_server;
          Alcotest.test_case "fractional pin counts rejected" `Quick
            test_fractional_pins_rejected;
          Alcotest.test_case "pin counts below 1 rejected" `Quick
            test_nonpositive_pins_rejected;
          Alcotest.test_case "fractional seed rejected" `Quick
            test_fractional_seed_rejected;
          Alcotest.test_case "seed beyond 2^53 rejected" `Quick
            test_inexact_seed_rejected;
          Alcotest.test_case "errors are per-request" `Quick
            test_error_isolated;
        ] );
      ( "identity",
        [
          Alcotest.test_case "served = one-shot on Table 1" `Quick
            test_table1_byte_identity;
          Alcotest.test_case "stream invariant under --jobs" `Quick
            test_jobs_invariance;
        ] );
    ]

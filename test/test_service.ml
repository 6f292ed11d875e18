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

(* Every served field reads through one typed reader: a field present
   with the wrong type or range makes the request Invalid with a reason
   that names it, never its default.  Each frame below was accepted, or
   silently defaulted, before the readers were shared; the two chaos
   families, with a jitter past Sim.Fault.max_jitter, were accepted and
   then failed the run. *)
let ill_typed_frames =
  let frame fields =
    Printf.sprintf {|{"id":"f","design":"Podium Timer 3",%s}|} fields
  in
  [
    ("lambda", frame {|"op":"weighted","lambda":"64"|});
    ("lambda", frame {|"op":"weighted","lambda":-64|});
    ("deadline_s", frame {|"backend":"exhaustive","deadline_s":"x"|});
    ("deadline_s", frame {|"backend":"exhaustive","deadline_s":-1|});
    ("op", frame {|"op":5|});
    ("backend", frame {|"backend":7|});
    ("family", frame {|"op":"weighted","family":3|});
    ("family", frame {|"op":"weighted","family":"chaos:0,0,0,256"|});
    ( "family",
      frame {|"op":"weighted","family":"chaos:0,0,0,4611686018427387903"|} );
    ("design", {|{"id":"f","design":5}|});
    ("design_text", frame {|"design_text":5|});
  ]

let test_ill_typed_field field () =
  List.iter
    (fun (f, frame) ->
      if f = field then expect_invalid (Printf.sprintf "%S" field) frame)
    ill_typed_frames

(* A request whose id is not a string is answered under "?". *)
let test_ill_typed_id () =
  match P.parse_request {|{"id":7,"design":"Podium Timer 3"}|} with
  | P.Invalid { id; reason } ->
    Alcotest.(check string) "answered under ?" "?" id;
    Alcotest.(check bool)
      (Printf.sprintf "reason %S names id" reason)
      true
      (Testlib.contains reason {|"id"|})
  | P.Request _ | P.Drain -> Alcotest.fail "a numeric id was accepted"

let test_ill_typed_rejected_by_server () =
  let frames =
    List.map snd ill_typed_frames
    @ [ partition_request ~id:"good" "Podium Timer 3"; P.drain_frame ]
  in
  let summary, out = serve frames in
  let rs = responses out in
  List.iter2
    (fun (field, _) (r : P.response) ->
      Alcotest.(check string) (field ^ ": rejected") "rejected" (status_of r);
      Alcotest.(check bool)
        (Printf.sprintf "%s: reason %S names it" field r.P.output)
        true
        (Testlib.contains r.P.output (Printf.sprintf "%S" field)))
    ill_typed_frames
    (List.filteri (fun i _ -> i < List.length ill_typed_frames) rs);
  Alcotest.(check string) "good request unaffected" "ok"
    (status_of (List.nth rs (List.length ill_typed_frames)));
  Alcotest.(check int) "counted as rejections"
    (List.length ill_typed_frames) summary.P.rejected

(* ------------------------------------------------------------------ *)
(* The store reads through the same readers: a header version that is
   not exactly 1 empties the cache with a warning, and a payload member
   that is not a whole number is a miss, never a truncated answer. *)

let rewrite path f =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> output_string oc (f text))

(* [text] with [insert] after the first number that follows [marker]. *)
let after_first_number ~marker insert text =
  let rec find i =
    if String.sub text i (String.length marker) = marker then i
    else find (i + 1)
  in
  let rec digit i = match text.[i] with '0' .. '9' -> i | _ -> digit (i + 1) in
  let rec past i = match text.[i] with '0' .. '9' -> past (i + 1) | _ -> i in
  let j = past (digit (find 0)) in
  String.sub text 0 j ^ insert ^ String.sub text j (String.length text - j)

let with_store f =
  let store = Filename.temp_file "svc_cache" ".json" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> try Sys.remove store with Sys_error _ -> ())
    (fun () ->
      let warned = ref [] in
      let config =
        { Service.Server.default_config with
          cache_path = Some store;
          log = (fun m -> warned := m :: !warned) }
      in
      f store config warned)

let test_store_fractional_version () =
  with_store @@ fun store config warned ->
  let frames = [ partition_request ~id:"a" "Podium Timer 3"; P.drain_frame ] in
  ignore (serve ~config frames);
  rewrite store (after_first_number ~marker:{|"version"|} ".9");
  warned := [];
  let s, _ = serve ~config frames in
  Alcotest.(check int) "version 1.9 starts empty" 1 s.P.misses;
  Alcotest.(check bool) "and warns, naming the version" true
    (List.exists (fun m -> Testlib.contains m {|"version"|}) !warned)

let test_store_fractional_member () =
  with_store @@ fun store config _ ->
  let frames = [ partition_request ~id:"a" "Podium Timer 3"; P.drain_frame ] in
  let _, out1 = serve ~config frames in
  rewrite store (after_first_number ~marker:{|"members"|} ".5");
  let s, out2 = serve ~config frames in
  Alcotest.(check (pair int int)) "a member of 2.5 is a miss" (0, 1)
    (s.P.hits, s.P.misses);
  match (responses out1, responses out2) with
  | [ a ], [ b ] ->
    Alcotest.(check string) "the recompute answers as before" a.P.output
      b.P.output
  | _ -> Alcotest.fail "expected one response per run"

(* ------------------------------------------------------------------ *)
(* The store is a log: replaying it reproduces the resident cache, a
   torn tail loads as the prefix before it, the version-1 document still
   loads, and the store is the one file at its path. *)

module Cache = Service.Cache

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = Filename.temp_dir "svc_store" "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)

let dir_listing dir = List.sort compare (Array.to_list (Sys.readdir dir))

(* A random stream of Table 1 requests, served by one resident server
   and again with a restart from the store before every batch: at
   capacity 3 it evicts and compacts, so any recency the log loses
   shows as a different disposition.  The restarted servers' summaries
   add up to the resident one's: a replay's evictions are not counted
   again. *)
let restart_pool =
  Array.of_list
    (List.concat_map
       (fun (d : Designs.Design.t) ->
         [ (Service.Oneshot.Paredown, d.Designs.Design.name);
           (Service.Oneshot.Aggregation, d.Designs.Design.name) ])
       (List.filteri (fun i _ -> i < 5) Designs.Library.table1))

let restart_stream =
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    QCheck.Gen.(
      list_size (int_range 2 5)
        (list_size (int_range 1 6) (int_bound (Array.length restart_pool - 1))))

let serve_stream ~config batches =
  List.concat_map
    (fun batch ->
      List.mapi
        (fun k i ->
          let backend, design = restart_pool.(i) in
          partition_request ~backend ~id:(string_of_int k) design)
        batch
      @ [ P.drain_frame ])
    batches
  |> serve ~config
  |> fun (summary, out) -> (summary, responses out)

let test_restart_replays_resident =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
    (QCheck.Test.make ~count:40
       ~name:"restart from the store = resident server" restart_stream
       (fun batches ->
         with_dir @@ fun dir ->
         let config path =
           { Service.Server.default_config with
             capacity = 3;
             cache_path = Option.map (Filename.concat dir) path }
         in
         let summary, resident = serve_stream ~config:(config None) batches in
         let runs =
           List.map
             (fun b -> serve_stream ~config:(config (Some "store")) [ b ])
             batches
         in
         let answer (r : P.response) = (cache_of r, r.P.output) in
         let total f = List.fold_left (fun a (s, _) -> a + f s) 0 runs in
         List.map answer resident
         = List.concat_map (fun (_, rs) -> List.map answer rs) runs
         && (summary.P.hits, summary.P.misses, summary.P.evictions)
            = ( total (fun s -> s.P.hits),
                total (fun s -> s.P.misses),
                total (fun s -> s.P.evictions) )
         && summary.P.cache_entries
            = (fst (List.nth runs (List.length runs - 1))).P.cache_entries
         && dir_listing dir = [ "store" ]))

(* One save per operation, at capacity 4: evictions, a compaction at
   the overwrite of k1, then two touches. *)
let torn_tail_log store =
  let cache, _ = Cache.create ~capacity:4 ~path:store () in
  List.iter
    (fun (op, k) ->
      let key = Printf.sprintf "k%d" k in
      (match op with
       | `Put ->
         Cache.insert cache key
           (Obs.Json.Obj [ ("n", Obs.Json.Num (float_of_int k)) ])
       | `Find -> ignore (Cache.find cache key));
      Cache.save cache)
    [ (`Put, 0); (`Put, 1); (`Find, 0); (`Put, 2); (`Put, 3); (`Find, 1);
      (`Put, 4); (`Find, 0); (`Find, 5); (`Put, 5); (`Find, 2); (`Put, 1);
      (`Find, 4); (`Find, 3) ];
  read_file store

let test_torn_tail () =
  with_dir @@ fun dir ->
  let text = torn_tail_log (Filename.concat dir "store") in
  let probe = Filename.concat dir "probe" in
  let load text =
    write_file probe text;
    let cache, load = Cache.create ~capacity:4 ~path:probe () in
    ( (Cache.stats cache).Cache.entries,
      List.init 6 (fun k -> Cache.find cache (Printf.sprintf "k%d" k)),
      load.Cache.warning )
  in
  Alcotest.(check string) "compacted at the overwrite of k1, then touched"
    (String.concat "\n"
       [ {|{"schema":"paredown-solution-cache","version":2}|};
         {|{"put":"k3","value":{"n":3}}|}; {|{"put":"k4","value":{"n":4}}|};
         {|{"put":"k5","value":{"n":5}}|}; {|{"put":"k1","value":{"n":1}}|};
         {|{"touch":"k4"}|}; {|{"touch":"k3"}|}; "" ])
    text;
  (* A malformed line ends the load as a torn one does. *)
  let lines = String.split_on_char '\n' text in
  let broken =
    List.mapi (fun i l -> if i = 2 then {|{"put":"k4"}|} else l) lines
  in
  let entries, finds, warning = load (String.concat "\n" broken) in
  let entries', finds', _ =
    load (String.concat "\n" (List.filteri (fun i _ -> i < 2) lines) ^ "\n")
  in
  Alcotest.(check int) "malformed line: entries before it" entries' entries;
  Alcotest.(check bool) "malformed line: finds before it" true (finds = finds');
  Alcotest.(check bool) "malformed line: warns" true (Option.is_some warning);
  for cut = 0 to String.length text do
    let torn = String.sub text 0 cut in
    let whole =
      match String.rindex_opt torn '\n' with
      | Some i -> String.sub torn 0 (i + 1)
      | None -> ""
    in
    let entries, finds, warning = load torn in
    let entries', finds', warning' = load whole in
    let at = Printf.sprintf "cut at %d" cut in
    Alcotest.(check int) (at ^ ": entries") entries' entries;
    Alcotest.(check bool) (at ^ ": finds") true (finds = finds');
    Alcotest.(check (option string)) (at ^ ": whole lines load quietly")
      None warning';
    Alcotest.(check bool) (at ^ ": warns iff bytes dropped")
      (String.length whole < cut) (Option.is_some warning)
  done

(* The store as it was written before the log: one indented document. *)
let version1_store =
  {|{
  "schema": "paredown-solution-cache",
  "version": 1,
  "entries": [
    {
      "key": "a",
      "value": {
        "n": 1
      }
    },
    {
      "key": "b",
      "value": {
        "n": 2
      }
    },
    {
      "key": "c",
      "value": {
        "n": 3
      }
    }
  ]
}|}

let test_version1_store () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "store" in
  write_file store version1_store;
  let cache, load = Cache.create ~capacity:3 ~path:store () in
  Alcotest.(check (pair int (option string))) "loads its three entries"
    (3, None) (load.Cache.restored, load.Cache.warning);
  Cache.save cache;
  Alcotest.(check string) "the next save rewrites it as a version-2 log"
    ({|{"schema":"paredown-solution-cache","version":2}|} ^ "\n"
     ^ {|{"put":"a","value":{"n":1}}|} ^ "\n"
     ^ {|{"put":"b","value":{"n":2}}|} ^ "\n"
     ^ {|{"put":"c","value":{"n":3}}|} ^ "\n")
    (read_file store);
  (* Recency survived: a fourth entry evicts "a", the oldest. *)
  let cache, _ = Cache.create ~capacity:3 ~path:store () in
  Cache.insert cache "d" Obs.Json.Null;
  Alcotest.(check (list bool)) "a is evicted first" [ false; true; true; true ]
    (List.map (fun k -> Cache.find cache k <> None) [ "a"; "b"; "c"; "d" ]);
  Alcotest.(check (list string)) "one file" [ "store" ] (dir_listing dir)

(* A store that cannot be written: the CLI's check rejects it, and the
   server answers every batch anyway, warning instead of raising. *)
let serve_unwritable store =
  let warned = ref [] in
  let config =
    { Service.Server.default_config with
      cache_path = Some store;
      log = (fun m -> warned := m :: !warned) }
  in
  let frames =
    [ partition_request ~id:"a" "Podium Timer 3"; P.drain_frame;
      partition_request ~id:"b" "Entry Gate Detector"; P.drain_frame ]
  in
  let _, out = serve ~config frames in
  Alcotest.(check (list string)) "both batches answered" [ "ok"; "ok" ]
    (List.map status_of (responses out));
  Alcotest.(check bool) "the CLI rejects the path" true
    (Result.is_error (Cache.writable store));
  List.rev !warned

let test_store_missing_directory () =
  with_dir @@ fun dir ->
  let warned = serve_unwritable (Filename.concat dir "missing/c.json") in
  Alcotest.(check int) "each save warns" 2
    (List.length
       (List.filter (fun m -> Testlib.contains m "cannot save") warned));
  Alcotest.(check (list string)) "nothing left behind" [] (dir_listing dir)

let test_store_is_directory () =
  with_dir @@ fun dir ->
  let store = Filename.concat dir "d" in
  Sys.mkdir store 0o755;
  let warned = serve_unwritable store in
  Alcotest.(check bool) "the load warns and starts empty" true
    (List.exists
       (fun m ->
         Testlib.contains m "cache: warning:"
         && Testlib.contains m "starting empty")
       warned);
  Alcotest.(check (list string)) "nothing left behind" [ "d" ]
    (dir_listing dir)

let test_writable_leaves_no_file () =
  with_dir @@ fun dir ->
  Alcotest.(check bool) "a fresh path is writable" true
    (Cache.writable (Filename.concat dir "c.json") = Ok ());
  Alcotest.(check (list string)) "and the probe leaves no file" []
    (dir_listing dir)

(* ------------------------------------------------------------------ *)
(* Loader robustness: mutants of a saved store (a two-batch log with a
   put under each backend, a touch and a third put) load, with or
   without a warning, and never raise. *)

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
         partition_request ~id:"a" "Noise At Night Detector";
         partition_request ~id:"c" "Entry Gate Detector";
         P.drain_frame;
       ]);
  let doc = read_file store in
  Testlib.loader_never_raises ~count:5000 ~seed:23 ~name:"mutated store" doc
    (fun text ->
      write_file store text;
      match snd (Cache.create ~path:store ()) with
      | { Cache.warning = None; restored } -> Ok restored
      | { warning = Some w; _ } -> Error w)

(* Mutants of one frame of each kind parse as a request, a drain or an
   Invalid answer, never raise. *)
let test_frame_loader_robustness =
  List.map
    (fun (name, frame) ->
      Testlib.loader_never_raises ~count:5000 ~seed:24
        ~name:("mutated " ^ name ^ " frame")
        frame
        (fun text ->
          match P.parse_request text with
          | P.Request _ | P.Drain -> Ok ()
          | P.Invalid _ -> Error ()))
    [
      ("partition", partition_request ~id:"p" "Podium Timer 3");
      ( "exhaustive",
        partition_request ~backend:Service.Oneshot.Exhaustive ~deadline_s:0.5
          ~id:"x" "Podium Timer 3" );
      ( "weighted",
        {|{"op":"weighted","lambda":4.5,"family":"drop:0.05","trials":16,|}
        ^ {|"seed":-7,"id":"w","design":"Entry Gate Detector",|}
        ^ {|"inputs":3,"outputs":2}|} );
      ( "design_text",
        text_request ~id:"t"
          (Netlist.Textio.to_string (find_design "Podium Timer 3")) );
      ("drain", P.drain_frame);
    ]

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
          Alcotest.test_case "store version 1.9 starts empty" `Quick
            test_store_fractional_version;
          Alcotest.test_case "fractional payload member is a miss" `Quick
            test_store_fractional_member;
          test_cache_loader_robustness;
        ] );
      ( "store",
        [
          test_restart_replays_resident;
          Alcotest.test_case "torn tail loads as its whole lines" `Quick
            test_torn_tail;
          Alcotest.test_case "version-1 store loads and converts" `Quick
            test_version1_store;
          Alcotest.test_case "missing directory: served, warned" `Quick
            test_store_missing_directory;
          Alcotest.test_case "directory as store: served, warned" `Quick
            test_store_is_directory;
          Alcotest.test_case "writable probe leaves no file" `Quick
            test_writable_leaves_no_file;
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
      ( "fields",
        List.map
          (fun field ->
            Alcotest.test_case (field ^ " ill-typed rejected") `Quick
              (test_ill_typed_field field))
          [ "lambda"; "deadline_s"; "op"; "backend"; "family"; "design";
            "design_text" ]
        @ [
            Alcotest.test_case "id ill-typed answered under ?" `Quick
              test_ill_typed_id;
            Alcotest.test_case "ill-typed fields answered rejected" `Quick
              test_ill_typed_rejected_by_server;
          ] );
      ("frames", test_frame_loader_robustness);
      ( "identity",
        [
          Alcotest.test_case "served = one-shot on Table 1" `Quick
            test_table1_byte_identity;
          Alcotest.test_case "stream invariant under --jobs" `Quick
            test_jobs_invariance;
        ] );
    ]

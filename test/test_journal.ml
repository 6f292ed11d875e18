(* The provenance journal: ring semantics, JSONL round-trips, parity
   between the journal's fit-check count and the metrics registry,
   --jobs determinism, the explain queries, the flight-recorder
   post-mortem bundle, and the disabled-path overhead bound. *)

open Alcotest

(* Every test runs against the process-wide journal, so each one resets
   it on the way in and out. *)
let isolated f () =
  Obs.Journal.reset ();
  Fun.protect ~finally:Obs.Journal.reset f

let check_contains what haystack needle =
  check bool
    (Printf.sprintf "%s (looking for %S in %S)" what needle haystack)
    true
    (Testlib.contains haystack needle)

let load_ok = function
  | Ok l -> l
  | Error e -> Alcotest.failf "load failed: %s" e

(* --- Ring semantics --------------------------------------------------------- *)

let test_ring () =
  let j = Obs.Journal.install ~capacity:4 () in
  for i = 0 to 5 do
    Obs.Journal.emit (Obs.Journal.Rejected { node = i; reason = "test" })
  done;
  ignore (Obs.Journal.uninstall ());
  check int "total" 6 (Obs.Journal.total j);
  check int "dropped" 2 (Obs.Journal.dropped j);
  let evs = Obs.Journal.events j in
  check (list int) "sequence numbers keep counting" [ 2; 3; 4; 5 ]
    (List.map fst evs);
  check (list int) "newest events survive" [ 2; 3; 4; 5 ]
    (List.map
       (fun (_, e) ->
         match e with
         | Obs.Journal.Rejected { node; _ } -> node
         | _ -> Alcotest.fail "unexpected event kind")
       evs)

(* --- JSONL round-trip over every event kind --------------------------------- *)

let all_kinds =
  Obs.Journal.
    [
      Run_started { phase = "paredown"; inner = 7 };
      Candidate_started { members = [ 2; 3; 5 ] };
      Fit_check
        { inputs_used = 3; outputs_used = 1; pins_ok = true;
          convex_ok = Some true; fits = true };
      Fit_check
        { inputs_used = 9; outputs_used = 4; pins_ok = false;
          convex_ok = None; fits = false };
      Ranked { ranks = [ (2, 1); (8, 1); (9, 0) ] };
      Ranked { ranks = [ (7, -1) ] };
      Removed { node = 4; rank = -1; d_in = Some 2; d_out = None };
      Accepted { members = [ 2; 3 ]; shape = "2-in/2-out" };
      Rejected { node = 9; reason = "left_single" };
      Pruned { depth = 3; bins_open = 2; bound = 7.; best = 6. };
      Exhaustive_best { total = 5; cost = 40.5 };
      Deadline_expired { phase = "exhaustive"; budget_s = 0.25; nodes = 4096 };
      Verify_tier { members = [ 1; 2 ]; tier = "bounded"; detail = "depth 6" };
      Cosim_shrink { seed = 11; round = 2; steps = 14 };
      Event_limit { clock = 99; queue_depth = 3; last_node = Some 4 };
      Reliability_scored
        { partitions = 3; trials = 16; severity = 0.125; cache_hit = false };
      Reliability_scored
        { partitions = 3; trials = 0; severity = 0.125; cache_hit = true };
    ]

let test_roundtrip () =
  let j = Obs.Journal.install () in
  List.iter Obs.Journal.emit all_kinds;
  ignore (Obs.Journal.uninstall ());
  let l = load_ok (Obs.Journal.load_string (Obs.Journal.to_jsonl j)) in
  check int "total survives" (List.length all_kinds) l.Obs.Journal.l_total;
  check int "nothing dropped" 0 l.Obs.Journal.l_dropped;
  check bool "no reason on a plain journal" true
    (l.Obs.Journal.l_reason = None);
  check bool "events round-trip exactly" true
    (l.Obs.Journal.l_events = List.mapi (fun i e -> (i, e)) all_kinds)

(* A kind this version no longer writes is an error, not a silent skip:
   [anneal_move] was the retired simulated-annealing search's event.
   The journal below is one such event under a one-event header. *)
let test_retired_kind_rejected () =
  let j = Obs.Journal.install () in
  Obs.Journal.emit (Obs.Journal.Rejected { node = 9; reason = "left_single" });
  ignore (Obs.Journal.uninstall ());
  let header = List.hd (String.split_on_char '\n' (Obs.Journal.to_jsonl j)) in
  let anneal_move =
    {|{"seq":0,"phase":"annealing","kind":"anneal_move","move":"grow",|}
    ^ {|"accepted":false,"temperature":0.5,"energy":12.25}|}
  in
  check (result unit string) "anneal_move is an unknown kind"
    (Error "unknown event kind \"anneal_move\"")
    (Result.map ignore
       (Obs.Journal.load_string (header ^ "\n" ^ anneal_move ^ "\n")))

(* --- Fit-check parity: journal = Paredown stats = metrics ------------------- *)

let test_fit_check_parity () =
  let g = Designs.Library.podium_timer_3.Designs.Design.network in
  let j = Obs.Journal.install () in
  let result, entries = Obs.Metrics.with_scope (fun () -> Core.Paredown.run g) in
  ignore (Obs.Journal.uninstall ());
  let counted =
    match
      List.find_opt
        (fun e -> e.Obs.Metrics.name = "core.paredown.fit_checks")
        entries
    with
    | Some { Obs.Metrics.value = n; _ } -> n
    | None -> -1
  in
  let l = load_ok (Obs.Journal.load_string (Obs.Journal.to_jsonl j)) in
  let journaled = Obs.Journal.fit_check_count l in
  check int "journal matches Paredown stats"
    result.Core.Paredown.stats.Core.Paredown.fit_checks journaled;
  check int "journal matches metrics counter" counted journaled;
  check_contains "summary reports the same total" (Obs.Journal.summary l)
    (Printf.sprintf "paredown fit checks: %d" journaled)

(* --- --jobs determinism ----------------------------------------------------- *)

let journal_bytes ~jobs seeds =
  Obs.Journal.reset ();
  let j = Obs.Journal.install () in
  ignore
    (Parallel.map ~jobs
       (fun seed ->
         let g =
           Randgen.Generator.generate ~rng:(Prng.create seed) ~inner:8 ()
         in
         ignore (Core.Paredown.run g))
       seeds);
  ignore (Obs.Journal.uninstall ());
  Obs.Journal.to_jsonl j

let jobs_determinism =
  QCheck.Test.make ~count:15
    ~name:"--jobs 1 and --jobs 2 journals are byte-identical"
    QCheck.(list_of_size Gen.(int_range 1 5) small_nat)
    (fun seeds ->
      let a = journal_bytes ~jobs:1 seeds in
      let b = journal_bytes ~jobs:2 seeds in
      Obs.Journal.reset ();
      String.equal a b)

(* --- explain why / diff ----------------------------------------------------- *)

let loaded_of events =
  Obs.Journal.reset ();
  let j = Obs.Journal.install () in
  List.iter Obs.Journal.emit events;
  ignore (Obs.Journal.uninstall ());
  load_ok (Obs.Journal.load_string (Obs.Journal.to_jsonl j))

let test_why () =
  let l =
    loaded_of
      Obs.Journal.
        [
          Candidate_started { members = [ 2; 3; 9 ] };
          Rejected { node = 9; reason = "left_single" };
          Accepted { members = [ 2; 3 ]; shape = "2-in/2-out" };
        ]
  in
  let about_9 = Obs.Journal.why ~node:9 l in
  check_contains "why 9 shows the rejection" about_9 "left_single";
  check_contains "why 9 shows the candidate" about_9 "candidate started";
  check bool "why 9 omits the acceptance" false
    (Testlib.contains about_9 "accepted");
  check_contains "unknown node says so" (Obs.Journal.why ~node:77 l)
    "no recorded decision touched node 77"

let test_diff () =
  let base =
    Obs.Journal.
      [
        Candidate_started { members = [ 2; 3 ] };
        Accepted { members = [ 2; 3 ]; shape = "2-in/2-out" };
      ]
  in
  let a = loaded_of base in
  let b = loaded_of base in
  check_contains "same events are identical" (Obs.Journal.diff a b)
    "identical (2 decisions)";
  let c =
    loaded_of
      Obs.Journal.
        [
          Candidate_started { members = [ 2; 3 ] };
          Rejected { node = 2; reason = "unplaceable" };
        ]
  in
  check_contains "divergence names the first differing seq"
    (Obs.Journal.diff a c) "diverge at seq 1";
  let shorter = loaded_of [ List.hd base ] in
  check_contains "prefix case reports the missing tail"
    (Obs.Journal.diff a shorter) "diverge at seq 1"

(* --- Flight recorder: forced deadline expiry dumps a loadable bundle -------- *)

let test_post_mortem_bundle () =
  let out = Filename.temp_file "paredown-postmortem" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      Obs.Journal.arm_post_mortem ~capacity:512 ~out ();
      let g =
        Randgen.Generator.generate ~rng:(Prng.create 99) ~inner:20 ()
      in
      let r = Core.Exhaustive.run ~deadline_s:0.0 g in
      check bool "search timed out" true
        (r.Core.Exhaustive.outcome = Core.Exhaustive.Timed_out);
      let l = load_ok (Obs.Journal.load_file out) in
      (match l.Obs.Journal.l_reason with
       | Some reason ->
         check_contains "reason names the deadline" reason "deadline"
       | None -> Alcotest.fail "bundle carries no failure reason");
      check bool "deadline event is in the tail" true
        (List.exists
           (fun (_, e) -> Obs.Journal.kind_of_event e = "deadline_expired")
           l.Obs.Journal.l_events);
      check_contains "summary surfaces the post-mortem reason"
        (Obs.Journal.summary l) "post-mortem reason")

(* A bundle written inside a fan-out item holds what the sequential
   run's holds: every item's search times out, and the first failure in
   input order dumps the journal as it stood then. *)
let bundle_fields ~jobs =
  Obs.Journal.reset ();
  let out = Filename.temp_file "paredown-postmortem" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Journal.reset ();
      try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      Obs.Journal.arm_post_mortem ~capacity:512 ~out ();
      ignore
        (Parallel.map ~jobs
           (fun seed ->
             let g =
               Randgen.Generator.generate ~rng:(Prng.create seed) ~inner:12 ()
             in
             ignore (Core.Paredown.run g);
             Core.Exhaustive.run ~deadline_s:0.0 g)
           [ 3; 4; 5 ]);
      let bundle =
        match
          Obs.Json.of_string
            (In_channel.with_open_text out In_channel.input_all)
        with
        | Ok j -> j
        | Error e -> Alcotest.failf "bundle does not parse: %s" e
      in
      List.map
        (fun f ->
          ( f,
            Option.fold ~none:"-" ~some:Obs.Json.to_string
              (Obs.Json.member f bundle) ))
        [ "reason"; "total"; "dropped"; "journal" ])

let test_bundle_jobs_invariant () =
  let seq = bundle_fields ~jobs:1 in
  check bool "the sequential bundle holds the search" true
    (String.length (List.assoc "journal" seq) > 1000);
  check (list (pair string string)) "jobs 2 bundle = jobs 1 bundle" seq
    (bundle_fields ~jobs:2)

(* --- Disabled-path overhead ------------------------------------------------- *)

(* The site count is pinned: a new emit site on the search path changes
   it, and must come with a fresh look at the bound.  486 = 372 other
   decisions + one [ranked] before each of the sweep's 114 removals. *)
let test_disabled_overhead () =
  let o = Experiments.Perf.journal_overhead ~iters:200_000 () in
  check int "guarded sites on the table1 sweep" 486 o.Experiments.Perf.sites;
  check bool
    (Printf.sprintf
       "disabled overhead %.5f of the table1 sweep (guard %.2f ns x %d \
        events) stays under 1%%"
       o.Experiments.Perf.ratio o.Experiments.Perf.guard_ns
       o.Experiments.Perf.sites)
    true
    (o.Experiments.Perf.ratio <= 0.01)

(* --- Journals written before the [ranked] kind ------------------------------ *)

(* Podium Timer 3's PareDown journal as written before [ranked] events
   existed (schema version 1 then as now). *)
let unranked_podium_jsonl =
  {|{"schema":"paredown-journal","version":1,"total":20,"dropped":0}
{"seq":0,"phase":"paredown","kind":"run_started","inner":8}
{"seq":1,"phase":"paredown","kind":"candidate_started","members":[2,3,4,5,6,7,8,9]}
{"seq":2,"phase":"paredown","kind":"fit_check","inputs_used":1,"outputs_used":3,"pins_ok":false,"convex_ok":null,"fits":false}
{"seq":3,"phase":"paredown","kind":"removed","node":9,"rank":0,"d_in":0,"d_out":0}
{"seq":4,"phase":"paredown","kind":"fit_check","inputs_used":1,"outputs_used":3,"pins_ok":false,"convex_ok":null,"fits":false}
{"seq":5,"phase":"paredown","kind":"removed","node":8,"rank":1,"d_in":0,"d_out":1}
{"seq":6,"phase":"paredown","kind":"fit_check","inputs_used":1,"outputs_used":4,"pins_ok":false,"convex_ok":null,"fits":false}
{"seq":7,"phase":"paredown","kind":"removed","node":7,"rank":-1,"d_in":0,"d_out":-1}
{"seq":8,"phase":"paredown","kind":"fit_check","inputs_used":1,"outputs_used":3,"pins_ok":false,"convex_ok":null,"fits":false}
{"seq":9,"phase":"paredown","kind":"removed","node":6,"rank":-1,"d_in":0,"d_out":-1}
{"seq":10,"phase":"paredown","kind":"fit_check","inputs_used":1,"outputs_used":2,"pins_ok":true,"convex_ok":true,"fits":true}
{"seq":11,"phase":"paredown","kind":"accepted","members":[2,3,4,5],"shape":"2x2"}
{"seq":12,"phase":"paredown","kind":"candidate_started","members":[6,7,8,9]}
{"seq":13,"phase":"paredown","kind":"fit_check","inputs_used":2,"outputs_used":3,"pins_ok":false,"convex_ok":null,"fits":false}
{"seq":14,"phase":"paredown","kind":"removed","node":7,"rank":-1,"d_in":0,"d_out":-1}
{"seq":15,"phase":"paredown","kind":"fit_check","inputs_used":2,"outputs_used":2,"pins_ok":true,"convex_ok":true,"fits":true}
{"seq":16,"phase":"paredown","kind":"accepted","members":[6,8,9],"shape":"2x2"}
{"seq":17,"phase":"paredown","kind":"candidate_started","members":[7]}
{"seq":18,"phase":"paredown","kind":"fit_check","inputs_used":1,"outputs_used":2,"pins_ok":true,"convex_ok":true,"fits":true}
{"seq":19,"phase":"paredown","kind":"rejected","node":7,"reason":"left_single"}
|}

let test_unranked_journal_loads () =
  let old = load_ok (Obs.Journal.load_string unranked_podium_jsonl) in
  check int "all 20 decisions" 20 (List.length old.Obs.Journal.l_events);
  let _, events =
    Obs.Journal.record (fun () -> Core.Paredown.run Testlib.podium)
  in
  check bool "today's run = the old journal plus ranked events" true
    (List.map snd old.Obs.Journal.l_events
    = List.filter
        (function Obs.Journal.Ranked _ -> false | _ -> true)
        events)

(* --- Loader robustness: mutated journals and bundles never raise ------------ *)

(* An exhaustive + PareDown run on Podium Timer 3, as a JSONL journal and
   as a post-mortem bundle.  A 128-event ring (what the flight recorder
   keeps) holds exhaustive's tail and all of PareDown's decisions, and
   keeps each parse cheap enough for thousands of mutants. *)
let loader_robustness =
  Obs.Journal.reset ();
  let j = Obs.Journal.install ~capacity:128 () in
  ignore (Core.Exhaustive.run Testlib.podium);
  ignore (Core.Paredown.run Testlib.podium);
  Obs.Journal.reset ();
  if not (Testlib.contains (Obs.Journal.to_jsonl j) {|"kind":"ranked"|}) then
    failwith "the mutation corpus holds no ranked event";
  let bundle =
    Obs.Json.to_string ~indent:2
      (Obs.Journal.post_mortem_json ~reason:"mutation corpus" j)
  in
  [
    Testlib.loader_never_raises ~count:5000 ~seed:20 ~name:"mutated JSONL"
      (Obs.Journal.to_jsonl j) Obs.Journal.load_string;
    Testlib.loader_never_raises ~count:2000 ~seed:21
      ~name:"mutated post-mortem bundle" bundle Obs.Journal.load_string;
  ]

let () =
  Alcotest.run "journal"
    [
      ( "storage",
        [
          test_case "ring keeps the newest events" `Quick (isolated test_ring);
          test_case "every event kind round-trips through JSONL" `Quick
            (isolated test_roundtrip);
          test_case "a retired event kind does not load" `Quick
            (isolated test_retired_kind_rejected);
          test_case "a journal without ranked events loads" `Quick
            (isolated test_unranked_journal_loads);
        ] );
      ( "parity",
        [
          test_case "fit checks: journal = stats = metrics" `Quick
            (isolated test_fit_check_parity);
        ] );
      ("determinism", Testlib.qtests [ jobs_determinism ]);
      ( "explain",
        [
          test_case "why filters to one node" `Quick (isolated test_why);
          test_case "diff finds the first divergence" `Quick
            (isolated test_diff);
        ] );
      ( "flight-recorder",
        [
          test_case "deadline expiry writes a loadable bundle" `Quick
            (isolated test_post_mortem_bundle);
          test_case "a bundle written in a fan-out item is jobs-invariant"
            `Quick (isolated test_bundle_jobs_invariant);
        ] );
      ( "overhead",
        [
          test_case "disabled emit guard is under 1% of a sweep" `Quick
            (isolated test_disabled_overhead);
        ] );
      ("loaders", loader_robustness);
    ]

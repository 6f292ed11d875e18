(* The perf suite behind `paredown perf record` and the bench JSON:
   group inventory, repeat-invariant recording, and the self-compare
   invariant the CI smoke test relies on. *)

let expected_groups =
  [ "kernel"; "exhaustive"; "table1"; "table2"; "scale"; "worstcase";
    "ablation"; "codegen"; "sim"; "faults"; "reliability"; "power";
    "frontend";
    "journal"; "sim_kernel"; "telemetry";
    "service" ]

let test_group_inventory () =
  let names = List.map (fun g -> g.Experiments.Perf.name)
      Experiments.Perf.groups in
  Alcotest.(check (list string)) "one group per bench table"
    expected_groups names;
  List.iter
    (fun g ->
      Alcotest.(check bool)
        (g.Experiments.Perf.name ^ " has a doc") true
        (String.length g.Experiments.Perf.doc > 0))
    Experiments.Perf.groups

(* Recording is the expensive part (it runs the whole pipeline), so one
   record feeds the remaining checks. *)
let snap = lazy (Experiments.Perf.record ~repeats:1 ())

let test_record_times_every_group () =
  let snap = Lazy.force snap in
  let times = snap.Obs.Snapshot.times_ns in
  Alcotest.(check int) "one time per group"
    (List.length expected_groups) (List.length times);
  List.iter
    (fun name ->
      match List.assoc_opt (Experiments.Perf.time_key name) times with
      | Some t ->
        Alcotest.(check bool) (name ^ " took positive time") true (t > 0.)
      | None -> Alcotest.failf "no time recorded for group %s" name)
    expected_groups

let test_record_captures_work_counters () =
  let snap = Lazy.force snap in
  let metric name =
    match List.assoc_opt name snap.Obs.Snapshot.metrics with
    | Some v -> v
    | None -> Alcotest.failf "metric %s missing from snapshot" name
  in
  List.iter
    (fun name ->
      match metric name with
      | Obs.Snapshot.Int n ->
        Alcotest.(check bool) (name ^ " counted") true (n > 0)
      | Obs.Snapshot.Float _ -> Alcotest.failf "%s is not a counter" name)
    [ "core.paredown.fit_checks"; "sim.settles"; "sim.settle_iterations" ];
  (* the registry keeps no distribution: every metric the snapshot
     writes is a plain number, never a summary object *)
  match Obs.Json.(field "metrics" (obj float)) (Obs.Snapshot.to_json snap) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "snapshot metrics are not all numbers: %s" e

let test_self_compare_passes () =
  let snap = Lazy.force snap in
  Alcotest.(check int) "a snapshot never regresses against itself" 0
    (List.length (Obs.Snapshot.gate ~base:snap snap))

let test_snapshot_round_trips_through_disk_format () =
  let snap = Lazy.force snap in
  match Obs.Snapshot.of_string (Obs.Snapshot.to_string snap) with
  | Error msg -> Alcotest.failf "recorded snapshot does not parse: %s" msg
  | Ok snap' ->
    Alcotest.(check string) "byte-stable serialisation"
      (Obs.Snapshot.to_string snap) (Obs.Snapshot.to_string snap');
    Alcotest.(check int) "gate passes across the round trip" 0
      (List.length (Obs.Snapshot.gate ~base:snap snap'))

let () =
  Alcotest.run "perf"
    [
      ( "suite",
        [
          Alcotest.test_case "group inventory" `Quick test_group_inventory;
          Alcotest.test_case "record times every group" `Slow
            test_record_times_every_group;
          Alcotest.test_case "record captures work counters" `Slow
            test_record_captures_work_counters;
          Alcotest.test_case "self-compare passes" `Slow
            test_self_compare_passes;
          Alcotest.test_case "round trip through disk format" `Slow
            test_snapshot_round_trips_through_disk_format;
        ] );
    ]

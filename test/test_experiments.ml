(* Tests for the experiment harness (Tables 1 and 2, scalability,
   ablations) and the report utilities it relies on. *)

let check = Alcotest.check

(* --- Report.Stats ---------------------------------------------------- *)

let feq = Alcotest.float 1e-9

let test_stats () =
  check feq "mean" 2.0 (Report.Stats.mean [ 1.; 2.; 3. ]);
  check feq "mean empty" 0.0 (Report.Stats.mean []);
  check feq "median odd" 2.0 (Report.Stats.median [ 3.; 1.; 2. ]);
  check feq "median even" 2.5 (Report.Stats.median [ 1.; 2.; 3.; 4. ]);
  check feq "stddev" 1.0 (Report.Stats.stddev [ 1.; 3.; 1.; 3. ]);
  check feq "stddev single" 0.0 (Report.Stats.stddev [ 5. ]);
  check feq "min" 1.0 (Report.Stats.minimum [ 3.; 1.; 2. ]);
  check feq "max" 3.0 (Report.Stats.maximum [ 3.; 1.; 2. ]);
  check feq "mean_int" 1.5 (Report.Stats.mean_int [ 1; 2 ]);
  check feq "percent" 50.0 (Report.Stats.percent_increase ~baseline:2.0 3.0);
  check feq "percent zero baseline" 0.0
    (Report.Stats.percent_increase ~baseline:0.0 3.0)

(* --- Report.Timing ---------------------------------------------------- *)

let test_format_seconds () =
  check Alcotest.string "sub-ms" "<1ms"
    (Report.Timing.format_seconds 0.0004);
  check Alcotest.string "ms" "6.56ms" (Report.Timing.format_seconds 0.00656);
  check Alcotest.string "seconds" "4.79 s"
    (Report.Timing.format_seconds 4.79);
  check Alcotest.string "minutes" "3.67 min"
    (Report.Timing.format_seconds (3.67 *. 60.))

let test_timing_measures () =
  let result, elapsed = Report.Timing.time (fun () -> 6 * 7) in
  check Alcotest.int "result" 42 result;
  check Alcotest.bool "non-negative" true (elapsed >= 0.);
  let result, _ =
    Report.Timing.time_best_of ~repeats:3 (fun () -> "done")
  in
  check Alcotest.string "best-of result" "done" result

(* --- Report.Table ------------------------------------------------------ *)

let test_table_render () =
  let text =
    Report.Table.render ~headers:[ "name"; "n" ]
      ~rows:[ [ "alpha"; "1" ]; [ "b"; "22" ] ]
      ()
  in
  check Alcotest.bool "left column padded" true
    (Testlib.contains text "alpha  ");
  check Alcotest.bool "right aligned" true (Testlib.contains text " 1\n");
  check Alcotest.bool "separator" true (Testlib.contains text "-----")

let test_table_csv () =
  let csv =
    Report.Table.render_csv ~headers:[ "a"; "b" ]
      ~rows:[ [ "x,y"; "has \"quotes\"" ] ]
  in
  check Alcotest.bool "comma quoted" true
    (Testlib.contains csv "\"x,y\"");
  check Alcotest.bool "quotes doubled" true
    (Testlib.contains csv "\"has \"\"quotes\"\"\"")

(* --- Table 1 ------------------------------------------------------------ *)

let table1_config =
  {
    Experiments.Table1.default_config with
    exhaustive_cutoff = 8;
    timing_repeats = 1;
  }

let test_table1_rows () =
  let rows = Experiments.Table1.run ~config:table1_config () in
  check Alcotest.int "15 rows" 15 (List.length rows);
  let podium =
    List.find
      (fun r ->
        r.Experiments.Table1.design.Designs.Design.name = "Podium Timer 3")
      rows
  in
  check Alcotest.int "podium pd total" 3
    podium.Experiments.Table1.paredown.Experiments.Table1.total;
  (match podium.Experiments.Table1.exhaustive with
   | Some e ->
     check Alcotest.int "podium exh total" 3 e.Experiments.Table1.total;
     check (Alcotest.option Alcotest.int) "overhead 0" (Some 0)
       podium.Experiments.Table1.block_overhead
   | None -> Alcotest.fail "podium exhaustive missing");
  (* rows beyond the cutoff carry no exhaustive data, like the paper *)
  let big =
    List.find
      (fun r ->
        r.Experiments.Table1.design.Designs.Design.name = "Timed Passage")
      rows
  in
  check Alcotest.bool "-- beyond cutoff" true
    (big.Experiments.Table1.exhaustive = None)

let test_table1_rendering () =
  let rows = Experiments.Table1.run ~config:table1_config () in
  let text = Experiments.Table1.to_table rows in
  List.iter
    (fun d ->
      check Alcotest.bool (d.Designs.Design.name ^ " present") true
        (Testlib.contains text d.Designs.Design.name))
    Designs.Library.table1;
  let csv = Experiments.Table1.to_csv rows in
  check Alcotest.int "csv line count" 16
    (List.length
       (List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)))

(* --- Table 2 -------------------------------------------------------------- *)

let table2_config =
  {
    Experiments.Table2.default_config with
    sizes = [ (3, 12); (5, 8); (14, 6) ];
    exhaustive_cutoff = 6;
    exhaustive_deadline_s = 5.0;
  }

let test_table2_buckets () =
  let buckets = Experiments.Table2.run ~config:table2_config () in
  check Alcotest.int "bucket count" 3 (List.length buckets);
  List.iter
    (fun b ->
      let open Experiments.Table2 in
      check Alcotest.bool "pd total within [1, inner]" true
        (b.pd_total_mean >= 1.0 && b.pd_total_mean <= float_of_int b.inner);
      if b.inner <= 6 then begin
        check Alcotest.int "exhaustive completed everywhere" b.count
          b.exhaustive_count;
        match b.exh_total_mean, b.block_overhead_mean with
        | Some exh, Some overhead ->
          check Alcotest.bool "overhead non-negative" true (overhead >= 0.);
          check Alcotest.bool "optimal <= heuristic" true
            (exh <= b.pd_total_mean +. 1e-9)
        | _ -> Alcotest.fail "missing exhaustive stats"
      end
      else
        check Alcotest.bool "no exhaustive beyond cutoff" true
          (b.exh_total_mean = None))
    buckets

let test_table2_deterministic () =
  (* the two *_seconds_mean fields are wall-clock readings; every other
     field of every bucket must repeat exactly *)
  let run () =
    List.map
      (fun (b : Experiments.Table2.bucket) ->
        { b with exh_seconds_mean = None; pd_seconds_mean = 0. })
      (Experiments.Table2.run ~config:table2_config ())
  in
  let buckets =
    Alcotest.testable
      (fun ppf bs -> Format.pp_print_string ppf (Experiments.Table2.to_csv bs))
      ( = )
  in
  check buckets "same seed, same table" (run ()) (run ())

(* --- Scale and ablation ----------------------------------------------------- *)

let test_scale_worst_case_formula () =
  let points = Experiments.Scale.run_worst_case ~sizes:[ 5; 12 ] () in
  List.iter
    (fun p ->
      let n = p.Experiments.Scale.inner in
      check Alcotest.int
        (Printf.sprintf "fit checks n=%d" n)
        (n * (n + 1) / 2)
        p.Experiments.Scale.fit_checks)
    points

let test_scale_random_points () =
  let points = Experiments.Scale.run_random ~sizes:[ 10; 30 ] () in
  check (Alcotest.list Alcotest.int) "sizes" [ 10; 30 ]
    (List.map (fun p -> p.Experiments.Scale.inner) points);
  List.iter
    (fun p ->
      check Alcotest.bool "reduction happened" true
        (p.Experiments.Scale.total <= p.Experiments.Scale.inner))
    points

(* The default-seed sweep's rows (inner, fit checks, total, prog), as
   EXPERIMENTS.md §5.2 prints them: a changed victim order moves them,
   while the worst-case closed form alone would not notice. *)
let test_scale_default_rows () =
  let row p =
    Experiments.Scale.(
      Printf.sprintf "%d: %d fit checks, %d/%d" p.inner p.fit_checks p.total
        p.prog)
  in
  check (Alcotest.list Alcotest.string) "inner: fit checks, total/prog"
    [
      "50: 931 fit checks, 41/9";
      "100: 2251 fit checks, 72/24";
      "200: 10165 fit checks, 150/41";
      "465: 56669 fit checks, 348/102";
    ]
    (List.map row (Experiments.Scale.run_random ()))

let test_power_rows () =
  let rows = Experiments.Power.run ~seed:23 ~steps:60 () in
  check Alcotest.int "one row per design"
    (List.length Designs.Library.all)
    (List.length rows);
  List.iter
    (fun r ->
      let open Experiments.Power in
      check Alcotest.bool (r.design ^ " never increases packets") true
        (r.packets_after <= r.packets_before);
      check Alcotest.bool (r.design ^ " percentage consistent") true
        (r.packets_saved_percent >= 0. && r.packets_saved_percent <= 100.);
      (* packet savings occur exactly when blocks were merged *)
      if r.inner_after = r.inner_before then
        check Alcotest.int (r.design ^ " unchanged network, same packets")
          r.packets_before r.packets_after)
    rows;
  (* the worked example merges 8 blocks into 3: packets must drop *)
  let podium =
    List.find
      (fun r -> r.Experiments.Power.design = "Podium Timer 3")
      rows
  in
  check Alcotest.bool "podium saves packets" true
    (podium.Experiments.Power.packets_after
     < podium.Experiments.Power.packets_before)

let test_ablation_variants () =
  let variants = Experiments.Ablation.run ~seed:1 ~count:10 ~inner:12 () in
  check Alcotest.int "six variants" 6 (List.length variants);
  let find label =
    List.find
      (fun v -> v.Experiments.Ablation.label = label)
      variants
  in
  let paper = find "paredown (paper)" in
  check Alcotest.int "paper variant always valid" 0
    paper.Experiments.Ablation.invalid_solutions;
  let agg = find "aggregation baseline" in
  check Alcotest.bool "aggregation no better than paredown" true
    (agg.Experiments.Ablation.mean_total
     >= paper.Experiments.Ablation.mean_total -. 1e-9);
  let wide = find "shapes {2x2, 4x4}" in
  check Alcotest.bool "wider shapes reduce totals" true
    (wide.Experiments.Ablation.mean_total
     <= paper.Experiments.Ablation.mean_total +. 1e-9)

let () =
  Alcotest.run "experiments"
    [
      ( "report",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "format seconds" `Quick test_format_seconds;
          Alcotest.test_case "timing" `Quick test_timing_measures;
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "table1",
        [
          Alcotest.test_case "rows" `Quick test_table1_rows;
          Alcotest.test_case "rendering" `Quick test_table1_rendering;
        ] );
      ( "table2",
        [
          Alcotest.test_case "buckets" `Quick test_table2_buckets;
          Alcotest.test_case "deterministic" `Quick test_table2_deterministic;
        ] );
      ( "scale",
        [
          Alcotest.test_case "worst-case formula" `Quick
            test_scale_worst_case_formula;
          Alcotest.test_case "random points" `Quick test_scale_random_points;
          Alcotest.test_case "default-seed rows" `Quick
            test_scale_default_rows;
        ] );
      ( "ablation",
        [ Alcotest.test_case "variants" `Quick test_ablation_variants ] );
      ( "power",
        [ Alcotest.test_case "rows" `Quick test_power_rows ] );
    ]

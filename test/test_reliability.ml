(* Tests for the reliability layer: Degrade.score and the classifier's
   edge cases, Fault.stats algebra, fault-plan families, the memoized
   Monte-Carlo estimator, the reliability-weighted searches, and the
   cost/reliability Pareto sweep. *)

module Graph = Netlist.Graph
module F = Sim.Fault
module D = Sim.Degrade
module Family = Reliability.Family
module Estimator = Reliability.Estimator

let check = Alcotest.check

let podium_script ?(steps = 20) seed =
  let g = Testlib.podium in
  Sim.Stimulus.random ~rng:(Prng.create seed) ~sensors:(Graph.sensors g)
    ~steps ~spacing:20

(* --- Degrade edge cases --------------------------------------------------- *)

let test_score_values_and_monotonicity () =
  let outcomes = D.[ Identical; Glitch_recovered; Wrong_value; Diverged ] in
  check (Alcotest.list (Alcotest.float 0.)) "score spectrum"
    [ 0.; 0.25; 0.75; 1. ]
    (List.map D.score outcomes);
  (* monotone in severity, both directions *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool
            (Printf.sprintf "monotone %s/%s" (D.outcome_to_string a)
               (D.outcome_to_string b))
            (D.severity a <= D.severity b)
            (D.score a <= D.score b))
        outcomes)
    outcomes

let test_zero_packet_script_identical () =
  (* an empty script gives the classifier nothing to compare: even a
     drop-everything plan comes back Identical with no mismatches *)
  let run = D.classify ~faults:(F.drop_all ~seed:2 1.0) Testlib.podium [] in
  check Alcotest.string "identical" "identical"
    (D.outcome_to_string run.D.outcome);
  check Alcotest.int "no steps compared" 0 run.D.steps;
  check Alcotest.int "no mismatches" 0 run.D.mismatched_steps

let test_never_strike_plan_identical () =
  (* a plan whose only fault lies beyond the simulated horizon is
     installed but never draws: Identical, with zero injections *)
  let plan =
    { F.none with
      seed = 5;
      default_edge = { F.no_edge_fault with dies_at = Some max_int } }
  in
  let run = D.classify ~faults:plan Testlib.podium (podium_script 11) in
  check Alcotest.string "identical" "identical"
    (D.outcome_to_string run.D.outcome);
  check Alcotest.int "nothing injected" 0 (F.total run.D.injected)

(* The glitch/wrong boundary, pinned per plan seed on one script: the
   same lossy rate yields a transient (recovers by the final step), a
   settled-wrong run, and a fully-absorbed one depending only on which
   packets the seed picks off. *)
let test_boundary_pinned_per_seed () =
  let script = podium_script 11 in
  let outcome seed =
    (D.classify ~faults:(F.drop_all ~seed 0.05) Testlib.podium script)
      .D.outcome
  in
  check Alcotest.string "seed 11 absorbs" "identical"
    (D.outcome_to_string (outcome 11));
  check Alcotest.string "seed 4 recovers" "glitch-recovered"
    (D.outcome_to_string (outcome 4));
  check Alcotest.string "seed 1 settles wrong" "wrong-value"
    (D.outcome_to_string (outcome 1))

let test_sweep_reports_settle_limit () =
  let script = podium_script 5 ~steps:10 in
  let reference = D.reference Testlib.podium script in
  let plans = [ F.none; F.drop_all ~seed:4 0.1 ] in
  let limits limit =
    List.map
      (fun r -> r.D.settle_limit)
      (D.classify_each ?settle_limit:limit ~reference plans)
  in
  check (Alcotest.list Alcotest.int) "caller's limit reported" [ 123; 123 ]
    (limits (Some 123));
  check (Alcotest.list Alcotest.int) "default limit reported"
    [ 100_000; 100_000 ] (limits None)

(* --- Fault.stats algebra -------------------------------------------------- *)

let test_stats_merge_laws () =
  let a =
    { F.drops = 3; duplicates = 1; corruptions = 0; jittered = 2;
      dead_link_losses = 5; resets = 1; stuck_overrides = 0 }
  in
  let b =
    { F.drops = 1; duplicates = 0; corruptions = 4; jittered = 0;
      dead_link_losses = 2; resets = 3; stuck_overrides = 7 }
  in
  check Alcotest.bool "zero is left identity" true (F.merge F.zero a = a);
  check Alcotest.bool "zero is right identity" true (F.merge a F.zero = a);
  check Alcotest.bool "commutative" true (F.merge a b = F.merge b a);
  check Alcotest.int "total is additive" (F.total a + F.total b)
    (F.total (F.merge a b));
  check Alcotest.int "zero totals zero" 0 (F.total F.zero)

(* --- Families ------------------------------------------------------------- *)

let all_families =
  [
    Family.Drop { rate = 0.05 };
    Family.Chaos { drop = 0.02; duplicate = 0.01; corrupt = 0.01; jitter = 2 };
    Family.Brownout { rate = 0.3; ticks = [ 50; 150; 250 ] };
  ]

let test_family_string_round_trip () =
  List.iter
    (fun f ->
      let s = Family.to_string f in
      match Family.of_string s with
      | Ok f' -> check Alcotest.string ("round-trip " ^ s) s
                   (Family.to_string f')
      | Error e -> Alcotest.fail (s ^ ": " ^ e))
    all_families;
  List.iter
    (fun bad ->
      match Family.of_string bad with
      | Ok _ -> Alcotest.fail (bad ^ " should not parse")
      | Error _ -> ())
    [ ""; "drop"; "drop:1.5"; "brownout:0.3"; "chaos:0.1"; "meteor:1" ]

(* The --drop converter: a rate gets the drop:R family's check, so a
   value outside [0, 1] (NaN and the infinities included) is a usage
   error with the family's message, never a row. *)
let test_drop_rate_converter () =
  let parse = Cmdliner.Arg.conv_parser Cli.rate_conv in
  List.iter
    (fun (s, rate) ->
      match parse s with
      | Ok r -> check (Alcotest.float 0.) ("accepts " ^ s) rate r
      | Error (`Msg e) -> Alcotest.failf "%s rejected: %s" s e)
    [ ("0", 0.); ("0.05", 0.05); ("1", 1.); ("1e-3", 0.001) ];
  List.iter
    (fun (s, message) ->
      match parse s with
      | Ok r -> Alcotest.failf "%s accepted as %g" s r
      | Error (`Msg e) -> check Alcotest.string ("rejects " ^ s) message e)
    [
      ("1.5", "drop rate must be in [0, 1]: 1.5");
      ("-0.1", "drop rate must be in [0, 1]: -0.1");
      ("nan", "drop rate must be in [0, 1]: nan");
      ("inf", "drop rate must be in [0, 1]: inf");
      ("abc", "drop rate is not a number: abc");
      ("", "drop rate is not a number: ");
    ]

(* The λ and deadline converter: the frame decoder's rule for "lambda"
   and "deadline_s" (a finite number >= 0), so the CLI admits exactly
   the values a request frame may carry. *)
let test_non_negative_converter () =
  let parse = Cmdliner.Arg.conv_parser Cli.non_negative_conv in
  List.iter
    (fun (s, v) ->
      match parse s with
      | Ok r -> check (Alcotest.float 0.) ("accepts " ^ s) v r
      | Error (`Msg e) -> Alcotest.failf "%s rejected: %s" s e)
    [ ("0", 0.); ("64", 64.); ("0.25", 0.25); ("1e3", 1000.) ];
  List.iter
    (fun (s, message) ->
      match parse s with
      | Ok r -> Alcotest.failf "%s accepted as %g" s r
      | Error (`Msg e) -> check Alcotest.string ("rejects " ^ s) message e)
    [
      ("-64", "must be a finite number >= 0: -64");
      ("-0.5", "must be a finite number >= 0: -0.5");
      ("nan", "must be a finite number >= 0: nan");
      ("inf", "must be a finite number >= 0: inf");
      ("-inf", "must be a finite number >= 0: -inf");
      ("abc", "is not a number: abc");
      ("", "is not a number: ");
    ];
  let served field value =
    let frame =
      match field with
      | `Lambda ->
        Printf.sprintf
          {|{"id":"x","op":"weighted","design":"Entry Gate Detector","lambda":%s}|}
          value
      | `Deadline ->
        Printf.sprintf
          {|{"id":"x","backend":"exhaustive","design":"Entry Gate Detector","deadline_s":%s}|}
          value
    in
    match Service.Protocol.parse_request frame with
    | Service.Protocol.Request _ -> true
    | Service.Protocol.Invalid _ | Service.Protocol.Drain -> false
  in
  List.iter
    (fun value ->
      let admitted = Result.is_ok (parse value) in
      check Alcotest.bool ("lambda " ^ value) admitted (served `Lambda value);
      check Alcotest.bool ("deadline_s " ^ value) admitted
        (served `Deadline value))
    [ "0"; "1"; "64"; "0.25"; "1e300"; "-1"; "-64"; "-0.5"; "-1e-9" ]

(* The trial-count converter: the frame decoder's rule for "trials" (a
   whole number in 1..max_trials), so every --trials the CLI admits is
   a count a served weighted request may carry, and no other. *)
let test_trials_converter () =
  let parse = Cmdliner.Arg.conv_parser Cli.trials_conv in
  let served value =
    match
      Service.Protocol.parse_request
        (Printf.sprintf
           {|{"id":"x","op":"weighted","design":"Entry Gate Detector","trials":%s}|}
           value)
    with
    | Service.Protocol.Request _ -> true
    | Service.Protocol.Invalid _ | Service.Protocol.Drain -> false
  in
  List.iter
    (fun (value, admitted) ->
      check Alcotest.bool ("--trials " ^ value) admitted
        (Result.is_ok (parse value));
      check Alcotest.bool ("\"trials\":" ^ value) admitted (served value))
    [
      ("0", false); ("1", true); ("10000", true); ("10001", false);
      ("1.5", false); ("x", false);
    ];
  check Alcotest.bool "--trials 10000 reads 10000" true
    (parse "10000" = Ok 10000)

(* The pin-count converter: the frame decoder's rule for "inputs" and
   "outputs" (a whole number >= 1), so every --inputs and --outputs the
   CLI admits is a shape a served request may carry, and no other. *)
let test_pins_converter () =
  let parse = Cmdliner.Arg.conv_parser Cli.pins_conv in
  let served field value =
    match
      Service.Protocol.parse_request
        (Printf.sprintf {|{"id":"x","design":"Entry Gate Detector","%s":%s}|}
           field value)
    with
    | Service.Protocol.Request _ -> true
    | Service.Protocol.Invalid _ | Service.Protocol.Drain -> false
  in
  List.iter
    (fun (value, admitted) ->
      check Alcotest.bool ("--inputs " ^ value) admitted
        (Result.is_ok (parse value));
      List.iter
        (fun field ->
          check Alcotest.bool
            (Printf.sprintf "%S:%s" field value)
            admitted (served field value))
        [ "inputs"; "outputs" ])
    [
      ("0", false); ("1", true); ("2", true); ("64", true); ("-1", false);
      ("1.5", false); ("x", false);
    ];
  check Alcotest.bool "--inputs 3 reads 3" true (parse "3" = Ok 3)

(* --faults, --family and a served "family" share one parser, so they
   admit the same families.  A chaos jitter past Sim.Fault.max_jitter
   is refused by both, by name: the CLI's message names jitter, the
   decoder's reason the field. *)
let test_family_converter () =
  let parse = Cmdliner.Arg.conv_parser Cli.family_conv in
  let served value =
    Service.Protocol.parse_request
      (Printf.sprintf
         {|{"id":"x","op":"weighted","design":"Entry Gate Detector","family":"%s"}|}
         value)
  in
  List.iter
    (fun (value, admitted) ->
      (match parse value with
       | Ok _ -> check Alcotest.bool ("--family " ^ value) admitted true
       | Error (`Msg e) ->
         check Alcotest.bool ("--family " ^ value) admitted false;
         if Testlib.contains value "chaos" then
           check Alcotest.bool
             (Printf.sprintf "%s: %S names jitter" value e)
             true
             (Testlib.contains e "jitter"));
      match served value with
      | Service.Protocol.Request _ ->
        check Alcotest.bool ("\"family\":" ^ value) admitted true
      | Service.Protocol.Invalid { reason; _ } ->
        check Alcotest.bool ("\"family\":" ^ value) admitted false;
        check Alcotest.bool
          (Printf.sprintf "%s: %S names family" value reason)
          true
          (Testlib.contains reason {|"family"|})
      | Service.Protocol.Drain -> Alcotest.fail "a request read as drain")
    [
      ("chaos:0,0,0,0", true);
      ("chaos:0.02,0.01,0.01,2", true);
      (Printf.sprintf "chaos:0,0,0,%d" F.max_jitter, true);
      (Printf.sprintf "chaos:0,0,0,%d" (F.max_jitter + 1), false);
      ("chaos:0,0,0,4611686018427387903", false);
      ("chaos:0,0,0,-1", false);
      ("drop:1.5", false);
    ]

let test_family_plan_deterministic () =
  let g = Testlib.podium in
  List.iter
    (fun f ->
      check Alcotest.bool
        ("deterministic " ^ Family.name f)
        true
        (Family.plan f ~seed:9 g = Family.plan f ~seed:9 g))
    all_families

let test_brownout_targets_inner_nodes () =
  let g = Testlib.podium in
  let inner = Graph.inner_nodes g in
  let plan =
    Family.plan (Family.Brownout { rate = 1.0; ticks = [ 10 ] }) ~seed:1 g
  in
  (* rate 1 browns out every inner block, and only inner blocks *)
  check Alcotest.int "one node fault per inner block" (List.length inner)
    (List.length plan.F.node_faults);
  List.iter
    (fun (node, nf) ->
      check Alcotest.bool "targets an inner node" true (List.mem node inner);
      check (Alcotest.list Alcotest.int) "resets at the listed tick" [ 10 ]
        nf.F.reset_at)
    plan.F.node_faults

(* --- The estimator -------------------------------------------------------- *)

let small_estimator =
  { Estimator.default_config with trials = 8; steps = 8; spacing = 20 }

let test_estimate_shape () =
  let e = Estimator.estimate_network small_estimator Testlib.podium in
  check Alcotest.int "counts cover every trial" e.Estimator.trials
    Estimator.(e.identical + e.recovered + e.wrong + e.diverged);
  let expected_mean =
    Estimator.(
      (0.25 *. float_of_int e.recovered
       +. 0.75 *. float_of_int e.wrong
       +. float_of_int e.diverged)
      /. float_of_int e.trials)
  in
  check (Alcotest.float 1e-9) "mean averages the scores" expected_mean
    e.Estimator.mean;
  check Alcotest.bool "interval brackets the mean" true
    (e.Estimator.lo <= e.Estimator.mean && e.Estimator.mean <= e.Estimator.hi);
  check Alcotest.bool "interval clamped to [0,1]" true
    (0. <= e.Estimator.lo && e.Estimator.hi <= 1.)

let test_estimate_never_strike_family () =
  (* drop:0 draws nothing: every trial Identical, zero injections *)
  let config = { small_estimator with family = Family.Drop { rate = 0. } } in
  let e = Estimator.estimate_network config Testlib.podium in
  check Alcotest.int "all identical" e.Estimator.trials e.Estimator.identical;
  check (Alcotest.float 0.) "zero mean" 0. e.Estimator.mean;
  check (Alcotest.float 0.) "zero stderr" 0. e.Estimator.stderr;
  check Alcotest.int "zero draws" 0 (F.total e.Estimator.injected)

let test_estimate_jobs_invariant () =
  let one = Estimator.estimate_network ~jobs:1 small_estimator Testlib.podium in
  let two = Estimator.estimate_network ~jobs:2 small_estimator Testlib.podium in
  check Alcotest.bool "jobs 1 = jobs 2" true (one = two)

(* Uneven chunks: 32 trials over 3 jobs replay on engines restarted
   11, 11 and 10 times. *)
let test_estimate_jobs_uneven_chunks () =
  List.iter
    (fun family ->
      let config = { Estimator.default_config with family } in
      let one = Estimator.estimate_network ~jobs:1 config Testlib.podium in
      let three = Estimator.estimate_network ~jobs:3 config Testlib.podium in
      check Alcotest.bool "the blame is not empty" true
        (Estimator.blame_total one.Estimator.blame > 0.);
      check Alcotest.bool
        (Family.to_string family ^ ": jobs 3 = jobs 1, blame included")
        true (one = three))
    [
      Estimator.default_config.family;
      Family.Chaos
        { drop = 0.05; duplicate = 0.05; corrupt = 0.05; jitter = 2 };
    ]

let sweep_families =
  List.map
    (fun s -> Result.get_ok (Family.of_string s))
    [ "drop:0.05"; "chaos:0.02,0.01,0.01,2"; "brownout:0.3@40,110,180" ]

let counter_delta name entries =
  match List.find_opt (fun e -> e.Obs.Metrics.name = name) entries with
  | Some { Obs.Metrics.value = n; _ } -> n
  | None -> 0

(* One settle per script step: the clean reference once, then each
   trial.  A diverged trial stops at the step that exhausted its limit,
   so the closed form holds exactly when no trial diverged — as on every
   network below. *)
let test_estimate_settles_closed_form () =
  List.iter
    (fun family ->
      let config = { Estimator.default_config with family } in
      List.iter
        (fun (d : Designs.Design.t) ->
          let e, entries =
            Obs.Metrics.with_scope (fun () ->
                Estimator.estimate_network config d.Designs.Design.network)
          in
          let what =
            Printf.sprintf "%s, %s" d.Designs.Design.name
              (Family.to_string family)
          in
          check Alcotest.int (what ^ ": no diverged trial") 0
            e.Estimator.diverged;
          check Alcotest.int
            (what ^ ": sim.settles = steps x (trials + 1)")
            (config.Estimator.steps * (config.Estimator.trials + 1))
            (counter_delta "sim.settles" entries);
          check Alcotest.int (what ^ ": sim.degrade.runs = trials")
            config.Estimator.trials
            (counter_delta "sim.degrade.runs" entries))
        Designs.Library.table1)
    sweep_families

let table1_estimates = {|== Ignition Illuminator, drop:0.05
0.172 ±0.044 (ok 18 gl 10 wr 4 dv 0 / 32)
site           severity  share
link 1.0->4.0    0.0534    31%
link 3.0->4.1    0.0456    27%
link 2.0->3.0    0.0417    24%
link 4.0->5.0    0.0312    18%
total            0.1719
== Night Lamp Controller, drop:0.05
0.281 ±0.056 (ok 14 gl 9 wr 9 dv 0 / 32)
site           severity  share
link 3.0->4.0    0.1445    51%
link 1.0->3.0    0.0768    27%
link 4.0->5.0    0.0417    15%
link 2.0->4.1    0.0182     6%
total            0.2812
== Entry Gate Detector, drop:0.05
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Carpool Alert, drop:0.05
0.391 ±0.059 (ok 10 gl 8 wr 14 dv 0 / 32)
site           severity  share
link 1.0->2.0    0.2279    58%
link 2.0->3.0    0.1237    32%
link 3.0->4.0    0.0391    10%
total            0.3906
== Cafeteria Food Alert, drop:0.05
0.453 ±0.062 (ok 10 gl 4 wr 18 dv 0 / 32)
site           severity  share
link 1.0->3.0    0.2383    53%
link 2.0->4.1    0.0977    22%
link 5.0->6.0    0.0586    13%
link 3.0->4.0    0.0352     8%
link 4.0->5.0    0.0234     5%
total            0.4531
== Podium Timer 2, drop:0.05
0.023 ±0.023 (ok 31 gl 0 wr 1 dv 0 / 32)
site           severity  share
link 4.0->5.0    0.0234   100%
total            0.0234
== Any Window Open Alarm, drop:0.05
0.109 ±0.022 (ok 18 gl 14 wr 0 dv 0 / 32)
site           severity  share
link 3.0->6.0    0.0286    26%
link 1.0->5.0    0.0234    21%
link 6.0->7.1    0.0221    20%
link 7.0->8.0    0.0143    13%
link 4.0->6.1    0.0104    10%
link 2.0->5.1    0.0065     6%
link 5.0->7.0    0.0039     4%
total            0.1094
== Two Button Light, drop:0.05
0.508 ±0.054 (ok 5 gl 8 wr 19 dv 0 / 32)
site           severity  share
link 5.0->8.0    0.1074    21%
link 5.0->9.0    0.0820    16%
link 1.0->3.0    0.0801    16%
link 3.0->6.0    0.0645    13%
link 3.0->5.0    0.0508    10%
link 2.0->4.0    0.0488    10%
link 4.0->7.0    0.0449     9%
link 4.0->5.1    0.0293     6%
total            0.5078
== Doorbell Extender 1, drop:0.05
0.305 ±0.050 (ok 9 gl 15 wr 8 dv 0 / 32)
site           severity  share
link 4.0->5.0    0.0699    23%
link 1.0->2.0    0.0564    19%
link 3.0->4.0    0.0475    16%
link 4.0->7.0    0.0411    14%
link 5.0->6.0    0.0346    11%
link 2.0->3.0    0.0297    10%
link 6.0->8.0    0.0254     8%
total            0.3047
== Doorbell Extender 2, drop:0.05
0.391 ±0.056 (ok 8 gl 11 wr 13 dv 0 / 32)
site           severity  share
link 1.0->2.0    0.0817    21%
link 4.0->8.0    0.0649    17%
link 4.0->5.0    0.0602    15%
link 2.0->3.0    0.0550    14%
link 5.0->6.0    0.0490    13%
link 3.0->4.0    0.0360     9%
link 6.0->7.0    0.0263     7%
link 7.0->9.0    0.0177     5%
total            0.3906
== Podium Timer 3, drop:0.05
0.492 ±0.051 (ok 3 gl 12 wr 17 dv 0 / 32)
site            severity  share
link 1.0->2.0     0.1005    20%
link 5.0->6.0     0.0652    13%
link 4.0->5.1     0.0516    10%
link 5.0->7.0     0.0430     9%
link 7.0->8.1     0.0391     8%
link 6.0->8.0     0.0355     7%
link 2.0->4.0     0.0324     7%
link 7.1->10.0    0.0301     6%
link 9.0->12.0    0.0266     5%
link 3.0->5.0     0.0254     5%
link 2.0->3.0     0.0203     4%
link 6.1->9.0     0.0121     2%
link 8.0->11.0    0.0104     2%
total             0.4922
== Noise At Night Detector, drop:0.05
0.336 ±0.050 (ok 7 gl 16 wr 9 dv 0 / 32)
site             severity  share
link 1.0->5.0      0.0464    14%
link 12.0->16.0    0.0437    13%
link 14.0->17.0    0.0312     9%
link 3.0->12.1     0.0288     9%
link 2.0->6.0      0.0229     7%
link 4.0->14.1     0.0221     7%
link 11.0->12.0    0.0215     6%
link 8.0->11.0     0.0195     6%
link 3.0->13.0     0.0182     5%
link 6.0->7.0      0.0163     5%
link 8.0->9.0      0.0163     5%
link 7.0->8.0      0.0156     5%
link 5.0->6.1      0.0125     4%
link 13.0->14.0    0.0104     3%
link 10.0->15.0    0.0078     2%
link 9.0->10.0     0.0026     1%
total              0.3359
== Two-Zone Security, drop:0.05
0.273 ±0.063 (ok 19 gl 2 wr 11 dv 0 / 32)
site             severity  share
link 3.0->12.2     0.0859    31%
link 9.0->30.0     0.0430    16%
link 13.0->14.0    0.0234     9%
link 18.0->26.0    0.0234     9%
link 27.0->28.0    0.0234     9%
link 10.0->30.1    0.0156     6%
link 11.0->30.2    0.0117     4%
link 12.0->13.0    0.0117     4%
link 15.0->16.0    0.0117     4%
link 14.0->15.0    0.0078     3%
link 17.0->18.0    0.0078     3%
link 30.0->33.0    0.0078     3%
total              0.2734
== Motion on Property Alert, drop:0.05
0.516 ±0.062 (ok 10 gl 0 wr 22 dv 0 / 32)
site             severity  share
link 17.0->18.0    0.0938    18%
link 3.0->10.0     0.0664    13%
link 6.0->21.0     0.0586    11%
link 14.0->15.0    0.0469     9%
link 1.0->13.1     0.0352     7%
link 12.0->27.0    0.0352     7%
link 1.0->16.1     0.0273     5%
link 1.0->7.1      0.0234     5%
link 11.0->12.0    0.0234     5%
link 15.0->28.0    0.0234     5%
link 18.0->19.0    0.0234     5%
link 2.0->7.0      0.0156     3%
link 4.0->13.0     0.0117     2%
link 5.0->16.0     0.0117     2%
link 13.0->14.0    0.0117     2%
link 10.0->11.0    0.0078     2%
total              0.5156
== Timed Passage, drop:0.05
0.445 ±0.050 (ok 3 gl 15 wr 14 dv 0 / 32)
site             severity  share
link 3.0->11.1     0.0437    10%
link 19.0->30.1    0.0328     7%
link 14.0->30.0    0.0277     6%
link 11.0->12.0    0.0203     5%
link 25.0->31.1    0.0202     5%
link 4.0->23.1     0.0172     4%
link 5.0->17.1     0.0172     4%
link 19.0->20.1    0.0164     4%
link 20.0->21.0    0.0164     4%
link 24.0->33.0    0.0164     4%
link 26.0->34.0    0.0164     4%
link 5.0->30.2     0.0156     4%
link 13.0->14.0    0.0156     4%
link 18.0->19.0    0.0152     3%
link 25.0->26.0    0.0137     3%
link 29.0->35.0    0.0137     3%
link 30.0->36.0    0.0125     3%
link 31.0->37.0    0.0125     3%
link 14.0->20.0    0.0111     2%
link 3.0->25.0     0.0104     2%
link 2.0->15.0     0.0094     2%
link 21.0->22.0    0.0094     2%
link 10.0->11.0    0.0078     2%
link 6.0->27.0     0.0065     1%
link 9.0->10.0     0.0065     1%
link 27.0->31.0    0.0063     1%
link 5.0->26.1     0.0059     1%
link 12.0->13.0    0.0059     1%
link 15.0->16.0    0.0059     1%
link 27.0->28.0    0.0059     1%
link 1.0->9.0      0.0047     1%
link 17.0->18.0    0.0047     1%
link 5.0->31.2     0.0016     0%
total              0.4453
== Ignition Illuminator, chaos:0.02,0.01,0.01,2
0.188 ±0.043 (ok 16 gl 12 wr 4 dv 0 / 32)
site           severity  share
link 2.0->3.0    0.0586    31%
link 4.0->5.0    0.0462    25%
link 3.0->4.1    0.0429    23%
link 1.0->4.0    0.0397    21%
total            0.1875
== Night Lamp Controller, chaos:0.02,0.01,0.01,2
0.148 ±0.035 (ok 17 gl 13 wr 2 dv 0 / 32)
site           severity  share
link 2.0->4.1    0.0529    36%
link 1.0->3.0    0.0351    24%
link 4.0->5.0    0.0344    23%
link 3.0->4.0    0.0261    18%
total            0.1484
== Entry Gate Detector, chaos:0.02,0.01,0.01,2
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Carpool Alert, chaos:0.02,0.01,0.01,2
0.305 ±0.060 (ok 15 gl 6 wr 11 dv 0 / 32)
site           severity  share
link 1.0->2.0    0.1579    52%
link 3.0->4.0    0.0735    24%
link 2.0->3.0    0.0734    24%
total            0.3047
== Cafeteria Food Alert, chaos:0.02,0.01,0.01,2
0.305 ±0.060 (ok 15 gl 6 wr 11 dv 0 / 32)
site           severity  share
link 2.0->4.1    0.0891    29%
link 5.0->6.0    0.0638    21%
link 1.0->3.0    0.0628    21%
link 4.0->5.0    0.0552    18%
link 3.0->4.0    0.0338    11%
total            0.3047
== Podium Timer 2, chaos:0.02,0.01,0.01,2
0.047 ±0.026 (ok 28 gl 3 wr 1 dv 0 / 32)
site           severity  share
link 1.0->2.0    0.0190    41%
link 4.0->5.0    0.0129    28%
link 2.0->3.0    0.0085    18%
link 3.0->4.0    0.0065    14%
total            0.0469
== Any Window Open Alarm, chaos:0.02,0.01,0.01,2
0.117 ±0.030 (ok 19 gl 12 wr 1 dv 0 / 32)
site           severity  share
link 5.0->7.0    0.0286    24%
link 2.0->5.1    0.0245    21%
link 6.0->7.1    0.0147    13%
link 4.0->6.1    0.0144    12%
link 1.0->5.0    0.0121    10%
link 7.0->8.0    0.0120    10%
link 3.0->6.0    0.0109     9%
total            0.1172
== Two Button Light, chaos:0.02,0.01,0.01,2
0.484 ±0.056 (ok 6 gl 8 wr 18 dv 0 / 32)
site           severity  share
link 2.0->4.0    0.0957    20%
link 5.0->8.0    0.0755    16%
link 5.0->9.0    0.0754    16%
link 4.0->7.0    0.0585    12%
link 1.0->3.0    0.0564    12%
link 4.0->5.1    0.0476    10%
link 3.0->5.0    0.0384     8%
link 3.0->6.0    0.0369     8%
total            0.4844
== Doorbell Extender 1, chaos:0.02,0.01,0.01,2
0.188 ±0.034 (ok 12 gl 18 wr 2 dv 0 / 32)
site           severity  share
link 1.0->2.0    0.0330    18%
link 2.0->3.0    0.0301    16%
link 3.0->4.0    0.0281    15%
link 4.0->7.0    0.0264    14%
link 4.0->5.0    0.0244    13%
link 6.0->8.0    0.0239    13%
link 5.0->6.0    0.0215    11%
total            0.1875
== Doorbell Extender 2, chaos:0.02,0.01,0.01,2
0.320 ±0.052 (ok 9 gl 14 wr 9 dv 0 / 32)
site           severity  share
link 2.0->3.0    0.0431    13%
link 4.0->8.0    0.0430    13%
link 3.0->4.0    0.0429    13%
link 1.0->2.0    0.0415    13%
link 5.0->6.0    0.0395    12%
link 7.0->9.0    0.0389    12%
link 4.0->5.0    0.0377    12%
link 6.0->7.0    0.0337    11%
total            0.3203
== Podium Timer 3, chaos:0.02,0.01,0.01,2
0.422 ±0.054 (ok 6 gl 12 wr 14 dv 0 / 32)
site            severity  share
link 1.0->2.0     0.0701    17%
link 2.0->4.0     0.0335     8%
link 3.0->5.0     0.0328     8%
link 5.0->6.0     0.0316     7%
link 7.1->10.0    0.0302     7%
link 4.0->5.1     0.0300     7%
link 9.0->12.0    0.0297     7%
link 2.0->3.0     0.0288     7%
link 8.0->11.0    0.0285     7%
link 7.0->8.1     0.0283     7%
link 5.0->7.0     0.0268     6%
link 6.0->8.0     0.0264     6%
link 6.1->9.0     0.0252     6%
total             0.4219
== Noise At Night Detector, chaos:0.02,0.01,0.01,2
0.133 ±0.030 (ok 17 gl 14 wr 1 dv 0 / 32)
site             severity  share
link 2.0->6.0      0.0132    10%
link 7.0->8.0      0.0116     9%
link 6.0->7.0      0.0112     8%
link 8.0->9.0      0.0108     8%
link 11.0->12.0    0.0094     7%
link 1.0->5.0      0.0093     7%
link 14.0->17.0    0.0092     7%
link 8.0->11.0     0.0089     7%
link 5.0->6.1      0.0086     6%
link 4.0->14.1     0.0085     6%
link 3.0->12.1     0.0068     5%
link 13.0->14.0    0.0067     5%
link 10.0->15.0    0.0065     5%
link 3.0->13.0     0.0059     4%
link 12.0->16.0    0.0041     3%
link 9.0->10.0     0.0021     2%
total              0.1328
== Two-Zone Security, chaos:0.02,0.01,0.01,2
0.352 ±0.067 (ok 17 gl 0 wr 15 dv 0 / 32)
site             severity  share
link 9.0->30.0     0.0530    15%
link 4.0->14.1     0.0295     8%
link 3.0->12.2     0.0292     8%
link 8.0->21.1     0.0262     7%
link 13.0->14.0    0.0236     7%
link 12.0->13.0    0.0205     6%
link 30.0->33.0    0.0188     5%
link 11.0->30.2    0.0187     5%
link 6.0->19.1     0.0185     5%
link 19.0->20.0    0.0176     5%
link 17.0->18.0    0.0162     5%
link 14.0->15.0    0.0156     4%
link 20.0->21.0    0.0138     4%
link 18.0->26.0    0.0127     4%
link 26.0->27.0    0.0085     2%
link 10.0->30.1    0.0084     2%
link 16.0->17.0    0.0080     2%
link 15.0->16.0    0.0079     2%
link 27.0->28.0    0.0019     1%
link 29.1->32.0    0.0019     1%
link 29.0->31.0    0.0009     0%
total              0.3516
== Motion on Property Alert, chaos:0.02,0.01,0.01,2
0.352 ±0.067 (ok 17 gl 0 wr 15 dv 0 / 32)
site             severity  share
link 5.0->16.0     0.0466    13%
link 2.0->7.0      0.0344    10%
link 4.0->13.0     0.0294     8%
link 6.0->21.0     0.0245     7%
link 13.0->14.0    0.0193     5%
link 3.0->10.0     0.0162     5%
link 15.0->28.0    0.0155     4%
link 1.0->13.1     0.0147     4%
link 1.0->16.1     0.0145     4%
link 1.0->21.1     0.0134     4%
link 19.0->20.0    0.0133     4%
link 1.0->7.1      0.0132     4%
link 14.0->15.0    0.0130     4%
link 18.0->19.0    0.0120     3%
link 1.0->10.1     0.0116     3%
link 12.0->27.0    0.0106     3%
link 20.0->29.0    0.0104     3%
link 17.0->18.0    0.0099     3%
link 11.0->12.0    0.0098     3%
link 16.0->17.0    0.0097     3%
link 10.0->11.0    0.0063     2%
link 8.0->9.0      0.0019     1%
link 9.0->26.0     0.0015     0%
total              0.3516
== Timed Passage, chaos:0.02,0.01,0.01,2
0.328 ±0.043 (ok 4 gl 21 wr 7 dv 0 / 32)
site             severity  share
link 5.0->31.2     0.0134     4%
link 4.0->23.1     0.0126     4%
link 3.0->11.1     0.0126     4%
link 5.0->17.1     0.0123     4%
link 26.0->34.0    0.0122     4%
link 9.0->10.0     0.0121     4%
link 15.0->16.0    0.0117     4%
link 25.0->26.0    0.0116     4%
link 18.0->19.0    0.0115     4%
link 31.0->37.0    0.0109     3%
link 2.0->15.0     0.0107     3%
link 19.0->20.1    0.0106     3%
link 5.0->26.1     0.0103     3%
link 25.0->31.1    0.0101     3%
link 5.0->30.2     0.0098     3%
link 3.0->25.0     0.0097     3%
link 24.0->33.0    0.0094     3%
link 20.0->21.0    0.0093     3%
link 17.0->18.0    0.0088     3%
link 11.0->12.0    0.0087     3%
link 6.0->27.0     0.0083     3%
link 23.0->24.0    0.0079     2%
link 19.0->30.1    0.0076     2%
link 27.0->28.0    0.0068     2%
link 22.0->23.0    0.0068     2%
link 1.0->9.0      0.0064     2%
link 12.0->13.0    0.0062     2%
link 22.0->32.0    0.0059     2%
link 14.0->30.0    0.0057     2%
link 13.0->14.0    0.0057     2%
link 8.0->27.2     0.0056     2%
link 27.0->31.0    0.0053     2%
link 28.0->29.0    0.0052     2%
link 10.0->11.0    0.0051     2%
link 16.0->17.0    0.0048     1%
link 21.0->22.0    0.0045     1%
link 29.0->35.0    0.0042     1%
link 30.0->36.0    0.0041     1%
link 14.0->20.0    0.0035     1%
total              0.3281
== Ignition Illuminator, brownout:0.3@40,110,180
0.203 ±0.018 (ok 6 gl 26 wr 0 dv 0 / 32)
site    severity  share
node 3    0.1159    57%
node 4    0.0872    43%
total     0.2031
== Night Lamp Controller, brownout:0.3@40,110,180
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Entry Gate Detector, brownout:0.3@40,110,180
0.133 ±0.022 (ok 15 gl 17 wr 0 dv 0 / 32)
site    severity  share
node 3    0.0872    66%
node 2    0.0456    34%
total     0.1328
== Carpool Alert, brownout:0.3@40,110,180
0.531 ±0.056 (ok 6 gl 5 wr 21 dv 0 / 32)
site    severity  share
node 2    0.3477    65%
node 3    0.1836    35%
total     0.5312
== Cafeteria Food Alert, brownout:0.3@40,110,180
0.492 ±0.064 (ok 11 gl 0 wr 21 dv 0 / 32)
site    severity  share
node 3    0.2461    50%
node 5    0.1320    27%
node 4    0.1141    23%
total     0.4922
== Podium Timer 2, brownout:0.3@40,110,180
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Any Window Open Alarm, brownout:0.3@40,110,180
0.211 ±0.016 (ok 5 gl 27 wr 0 dv 0 / 32)
site    severity  share
node 7    0.0818    39%
node 5    0.0664    31%
node 6    0.0628    30%
total     0.2109
== Two Button Light, brownout:0.3@40,110,180
0.539 ±0.054 (ok 5 gl 6 wr 21 dv 0 / 32)
site    severity  share
node 3    0.2461    46%
node 5    0.1698    31%
node 4    0.1232    23%
total     0.5391
== Doorbell Extender 1, brownout:0.3@40,110,180
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Doorbell Extender 2, brownout:0.3@40,110,180
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Podium Timer 3, brownout:0.3@40,110,180
0.547 ±0.052 (ok 4 gl 7 wr 21 dv 0 / 32)
site    severity  share
node 2    0.1054    19%
node 6    0.0889    16%
node 9    0.0865    16%
node 4    0.0666    12%
node 5    0.0633    12%
node 3    0.0584    11%
node 8    0.0466     9%
node 7    0.0312     6%
total     0.5469
== Noise At Night Detector, brownout:0.3@40,110,180
0.242 ±0.008 (ok 1 gl 31 wr 0 dv 0 / 32)
site     severity  share
node 12    0.0308    13%
node 9     0.0307    13%
node 5     0.0298    12%
node 8     0.0265    11%
node 7     0.0255    11%
node 13    0.0237    10%
node 14    0.0216     9%
node 6     0.0210     9%
node 11    0.0196     8%
node 10    0.0130     5%
total      0.2422
== Two-Zone Security, brownout:0.3@40,110,180
0.609 ±0.053 (ok 6 gl 0 wr 26 dv 0 / 32)
site     severity  share
node 19    0.0477     8%
node 12    0.0459     8%
node 24    0.0416     7%
node 16    0.0386     6%
node 25    0.0354     6%
node 14    0.0350     6%
node 27    0.0346     6%
node 29    0.0342     6%
node 13    0.0337     6%
node 20    0.0337     6%
node 28    0.0337     6%
node 15    0.0325     5%
node 23    0.0304     5%
node 22    0.0255     4%
node 21    0.0248     4%
node 18    0.0244     4%
node 26    0.0239     4%
node 30    0.0180     3%
node 17    0.0154     3%
total      0.6094
== Motion on Property Alert, brownout:0.3@40,110,180
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
== Timed Passage, brownout:0.3@40,110,180
0.000 ±0.000 (ok 32 gl 0 wr 0 dv 0 / 32)
site   severity  share
total    0.0000
|}

(* pp_estimate and blame_table of every flat Table 1 design under the
   three reliability-sweep families, at the default config.  The text
   was produced by an estimator that took blame from a telemetry
   collector per trial on a fresh engine per trial, so it holds the
   strike-counter blame and the restarted engines to that reference. *)
let test_estimates_golden () =
  let rendered =
    String.concat ""
      (List.concat_map
         (fun family ->
           List.map
             (fun (d : Designs.Design.t) ->
               let config = { Estimator.default_config with family } in
               let e =
                 Estimator.estimate_network config d.Designs.Design.network
               in
               Format.asprintf "== %s, %s@.%a@.%s" d.Designs.Design.name
                 (Family.to_string family) Estimator.pp_estimate e
                 (Estimator.blame_table e.Estimator.blame))
             Designs.Library.table1)
         sweep_families)
  in
  check Alcotest.string "estimates and blame tables" table1_estimates rendered

let test_fingerprint_permutation_invariant () =
  let g = Testlib.podium in
  let solution = (Core.Paredown.run g).Core.Paredown.solution in
  check Alcotest.bool "needs two partitions to permute" true
    (List.length solution.Core.Solution.partitions >= 2);
  let reversed =
    { Core.Solution.partitions =
        List.rev solution.Core.Solution.partitions }
  in
  check Alcotest.string "order-independent key"
    (Estimator.fingerprint small_estimator g solution)
    (Estimator.fingerprint small_estimator g reversed)

(* The cache key format, pinned. *)
let test_fingerprint_pinned () =
  let g = Testlib.podium in
  let solution = (Core.Paredown.run g).Core.Paredown.solution in
  check Alcotest.string "fingerprint"
    "brownout:0.3@40,110,180|1|32|12|30|100000|\
     93a6656d7446946ce165d0f3522c244f|{2,3,4,5}/2x2;{6,8,9}/2x2"
    (Estimator.fingerprint Estimator.default_config g solution)

(* The cache digests the last network it scored once, keyed by physical
   equality; another network, or a structurally equal copy, is digested
   afresh and keys exactly as [fingerprint] does. *)
let test_cache_digest_memo () =
  let a = Testlib.podium in
  let b = Designs.Library.entry_gate_detector.Designs.Design.network in
  let a_copy = snd (Netlist.Textio.of_string (Netlist.Textio.to_string a)) in
  check Alcotest.bool "the copy is a distinct value" false (a == a_copy);
  let cache = Estimator.cache () in
  let score g = Estimator.estimate_solution ~cache small_estimator g in
  let flat_a = score a Core.Solution.empty in
  let flat_b = score b Core.Solution.empty in
  let flat_a' = score a Core.Solution.empty in
  let flat_copy = score a_copy Core.Solution.empty in
  check Alcotest.bool "a after b hits a's entry" true (flat_a = flat_a');
  check Alcotest.bool "the copy hits a's entry" true (flat_a = flat_copy);
  check Alcotest.bool "b is b's own estimate" true
    (flat_b = Estimator.estimate_network small_estimator b);
  let stats = Estimator.cache_stats cache in
  check Alcotest.int "two misses" 2 stats.Estimator.misses;
  check Alcotest.int "two hits" 2 stats.Estimator.hits

let test_cache_hits () =
  let g = Testlib.podium in
  let solution = (Core.Paredown.run g).Core.Paredown.solution in
  let cache = Estimator.cache () in
  let (first, second), entries =
    Obs.Metrics.with_scope (fun () ->
        let first =
          Estimator.estimate_solution ~cache small_estimator g solution
        in
        (* same partitions, permuted: must hit, not recompute *)
        let second =
          Estimator.estimate_solution ~cache small_estimator g
            { Core.Solution.partitions =
                List.rev solution.Core.Solution.partitions }
        in
        (first, second))
  in
  check Alcotest.bool "hit returns the stored estimate" true (first = second);
  let stats = Estimator.cache_stats cache in
  check Alcotest.int "one hit" 1 stats.Estimator.hits;
  check Alcotest.int "one miss" 1 stats.Estimator.misses;
  check Alcotest.int "one entry" 1 stats.Estimator.entries;
  let scoped name =
    match
      List.find_opt (fun e -> e.Obs.Metrics.name = name) entries
    with
    | Some { Obs.Metrics.value = n; _ } -> n
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  check Alcotest.int "cache_hits counter" 1 (scoped "reliability.cache_hits");
  check Alcotest.int "cache_misses counter" 1
    (scoped "reliability.cache_misses");
  check Alcotest.int "trials counter" small_estimator.Estimator.trials
    (scoped "reliability.trials")

(* The memo table is a bounded LRU now.  Pinned behaviours: a capacity
   larger than the working set is observationally the old unbounded
   table (same estimates, zero evictions); a tight capacity evicts —
   counted on the cache and the reliability.cache_evictions metric —
   and still returns exactly the same estimates, just recomputed. *)
let test_cache_capacity_bound () =
  let g = Testlib.podium in
  let full = (Core.Paredown.run g).Core.Paredown.solution in
  let solutions =
    (* distinct fingerprints: empty, each partition alone, both *)
    Core.Solution.empty
    :: full
    :: List.map
         (fun p -> { Core.Solution.partitions = [ p ] })
         full.Core.Solution.partitions
  in
  check Alcotest.bool "working set has at least 4 keys" true
    (List.length solutions >= 4);
  let sweep cache =
    (* two passes: the second pass hits only if nothing was evicted *)
    List.concat_map
      (fun s ->
        List.map
          (fun s -> Estimator.estimate_solution ~cache small_estimator g s)
          [ s ])
      (solutions @ solutions)
  in
  let roomy = Estimator.cache ~capacity:16 () in
  let tight = Estimator.cache ~capacity:2 () in
  let (roomy_ests, tight_ests), entries =
    Obs.Metrics.with_scope (fun () -> (sweep roomy, sweep tight))
  in
  check Alcotest.bool "estimates unchanged under eviction pressure" true
    (roomy_ests = tight_ests);
  let roomy_stats = Estimator.cache_stats roomy in
  let tight_stats = Estimator.cache_stats tight in
  check Alcotest.int "roomy capacity never evicts" 0
    roomy_stats.Estimator.evictions;
  check Alcotest.int "roomy second pass all hits"
    (List.length solutions) roomy_stats.Estimator.hits;
  check Alcotest.bool "tight capacity evicts" true
    (tight_stats.Estimator.evictions > 0);
  check Alcotest.int "tight capacity holds its bound" 2
    tight_stats.Estimator.entries;
  let metric =
    match
      List.find_opt
        (fun e -> e.Obs.Metrics.name = "reliability.cache_evictions")
        entries
    with
    | Some { Obs.Metrics.value = n; _ } -> n
    | None -> Alcotest.fail "missing counter reliability.cache_evictions"
  in
  check Alcotest.int "evictions counted on the metric"
    tight_stats.Estimator.evictions metric

(* --- The weighted searches ------------------------------------------------ *)

let weighted ~lambda ~lexicographic ~cache g =
  {
    Core.Paredown.lambda;
    lexicographic;
    severity = Estimator.scorer ~cache small_estimator g;
  }

let test_lambda_zero_returns_base () =
  let g = Testlib.podium in
  let cache = Estimator.cache () in
  let r =
    Core.Paredown.run_weighted
      ~weighted:(weighted ~lambda:0. ~lexicographic:false ~cache g) g
  in
  check Alcotest.bool "solution is the paper's" true
    (r.Core.Paredown.solution = r.Core.Paredown.base.Core.Paredown.solution);
  check Alcotest.int "nothing dissolved" 0 r.Core.Paredown.dissolved;
  check (Alcotest.float 0.) "severity unchanged"
    r.Core.Paredown.base_severity r.Core.Paredown.severity

(* The seeded counterexample, pinned as a regression: on the Entry Gate
   Detector under the default brownout family the paper's merge is the
   less reliable answer (merged ≈ 0.164 vs flat ≈ 0.133 expected
   severity), and λ = 64 — past the 1/Δseverity ≈ 32 exchange rate —
   buys the dissolve back. *)
let test_entry_gate_dissolve_regression () =
  let g = Designs.Library.entry_gate_detector.Designs.Design.network in
  let cache = Estimator.cache () in
  let config = Estimator.default_config in
  let r =
    Core.Paredown.run_weighted
      ~weighted:
        {
          Core.Paredown.lambda = 64.;
          lexicographic = false;
          severity = Estimator.scorer ~cache config g;
        }
      g
  in
  check Alcotest.int "one partition dissolved" 1 r.Core.Paredown.dissolved;
  check Alcotest.bool "strictly more reliable than λ=0" true
    (r.Core.Paredown.severity < r.Core.Paredown.base_severity);
  (* the pinned magnitudes, loose enough to survive float formatting *)
  check (Alcotest.float 0.01) "flat severity" 0.133 r.Core.Paredown.severity;
  check (Alcotest.float 0.01) "merged severity" 0.164
    r.Core.Paredown.base_severity

let test_lexicographic_never_worse () =
  List.iter
    (fun d ->
      let g = d.Designs.Design.network in
      let cache = Estimator.cache () in
      let r =
        Core.Paredown.run_weighted
          ~weighted:(weighted ~lambda:0. ~lexicographic:true ~cache g) g
      in
      check Alcotest.bool
        (d.Designs.Design.name ^ " lex never worse")
        true
        (r.Core.Paredown.severity <= r.Core.Paredown.base_severity))
    [ Designs.Library.podium_timer_3; Designs.Library.entry_gate_detector ]

(* --- The Pareto sweep ----------------------------------------------------- *)

module R = Experiments.Reliability

let small_sweep =
  { R.default_config with
    estimator = small_estimator;
    lambdas = [ 0.; 64. ] }

let test_sweep_rows_well_formed () =
  let report =
    R.run_network ~config:small_sweep ~name:"podium" Testlib.podium
  in
  (* flat + one row per λ + lex *)
  check Alcotest.int "row count" 4 (List.length report.R.rows);
  (match report.R.rows with
   | first :: _ ->
     check Alcotest.string "flat row first" "flat"
       (R.mode_to_string first.R.mode);
     check Alcotest.int "flat has no partitions" 0 first.R.partitions
   | [] -> Alcotest.fail "no rows");
  check Alcotest.bool "some row on the front" true
    (List.exists (fun r -> r.R.on_front) report.R.rows);
  (* a dominated row is dominated by some front row *)
  List.iter
    (fun r ->
      if not r.R.on_front then
        check Alcotest.bool "dominated by a front row" true
          (List.exists
             (fun o ->
               o.R.on_front
               && o.R.blocks <= r.R.blocks
               && o.R.severity <= r.R.severity
               && (o.R.blocks < r.R.blocks || o.R.severity < r.R.severity))
             report.R.rows))
    report.R.rows;
  let stats = report.R.cache in
  check Alcotest.bool "sweep shares the cache" true
    (stats.Estimator.hits > 0)

let test_sweep_finds_the_counterexample () =
  (* the acceptance criterion, via the experiment's own rows: some λ
     strictly beats λ=0 on the Entry Gate Detector *)
  let report =
    { small_sweep with estimator = Estimator.default_config }
    |> fun config -> R.run_design ~config Designs.Library.entry_gate_detector
  in
  let severity mode =
    match List.find_opt (fun r -> r.R.mode = mode) report.R.rows with
    | Some r -> r.R.severity
    | None -> Alcotest.fail ("missing row " ^ R.mode_to_string mode)
  in
  check Alcotest.bool "λ=64 beats λ=0" true
    (severity (R.Weighted 64.) < severity (R.Weighted 0.))

let test_sweep_jobs_byte_identical () =
  let run jobs = R.run ~config:small_sweep ~jobs () in
  let one = run 1 and two = run 2 in
  check Alcotest.string "tables byte-identical" (R.to_table one)
    (R.to_table two);
  check Alcotest.string "csv byte-identical" (R.to_csv one) (R.to_csv two);
  check Alcotest.bool "summaries agree" true (R.summary one = R.summary two)

let () =
  Alcotest.run "reliability"
    [
      ( "degrade",
        [
          Alcotest.test_case "score values + monotonicity" `Quick
            test_score_values_and_monotonicity;
          Alcotest.test_case "zero-packet script" `Quick
            test_zero_packet_script_identical;
          Alcotest.test_case "never-strike plan" `Quick
            test_never_strike_plan_identical;
          Alcotest.test_case "gl/wr boundary per seed" `Quick
            test_boundary_pinned_per_seed;
          Alcotest.test_case "sweep reports settle limit" `Quick
            test_sweep_reports_settle_limit;
        ] );
      ( "stats",
        [ Alcotest.test_case "merge laws" `Quick test_stats_merge_laws ] );
      ( "families",
        [
          Alcotest.test_case "string round-trip" `Quick
            test_family_string_round_trip;
          Alcotest.test_case "drop-rate converter" `Quick
            test_drop_rate_converter;
          Alcotest.test_case "λ and deadline converter" `Quick
            test_non_negative_converter;
          Alcotest.test_case "trial-count converter" `Quick
            test_trials_converter;
          Alcotest.test_case "pin-count converter" `Quick
            test_pins_converter;
          Alcotest.test_case "family converter" `Quick
            test_family_converter;
          Alcotest.test_case "plan deterministic" `Quick
            test_family_plan_deterministic;
          Alcotest.test_case "brownout targets inner nodes" `Quick
            test_brownout_targets_inner_nodes;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "estimate shape" `Quick test_estimate_shape;
          Alcotest.test_case "never-strike family" `Quick
            test_estimate_never_strike_family;
          Alcotest.test_case "jobs invariant" `Quick
            test_estimate_jobs_invariant;
          Alcotest.test_case "jobs 3 = jobs 1 (uneven chunks)" `Quick
            test_estimate_jobs_uneven_chunks;
          Alcotest.test_case "settles in closed form" `Quick
            test_estimate_settles_closed_form;
          Alcotest.test_case "table 1 estimates golden" `Quick
            test_estimates_golden;
          Alcotest.test_case "fingerprint permutation" `Quick
            test_fingerprint_permutation_invariant;
          Alcotest.test_case "fingerprint pinned" `Quick
            test_fingerprint_pinned;
          Alcotest.test_case "cache hits" `Quick test_cache_hits;
          Alcotest.test_case "cache digest memo" `Quick
            test_cache_digest_memo;
          Alcotest.test_case "cache capacity bound" `Quick
            test_cache_capacity_bound;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "λ=0 returns base" `Quick
            test_lambda_zero_returns_base;
          Alcotest.test_case "entry gate dissolve (pinned)" `Quick
            test_entry_gate_dissolve_regression;
          Alcotest.test_case "lexicographic never worse" `Quick
            test_lexicographic_never_worse;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "rows well-formed" `Quick
            test_sweep_rows_well_formed;
          Alcotest.test_case "finds the counterexample" `Quick
            test_sweep_finds_the_counterexample;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_sweep_jobs_byte_identical;
        ] );
    ]

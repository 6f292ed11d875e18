(* The observability layer: clock, metrics registry, span recording,
   Chrome trace JSON, and the instrumented-pipeline invariants —
   most importantly the §4.2 claim that PareDown performs exactly
   n(n+1)/2 fit checks on the worst-case family, asserted through the
   global counter. *)

let fit_checks_counter = "core.paredown.fit_checks"

let counter_value name =
  match Obs.Metrics.find name with
  | Some { Obs.Metrics.value = n; _ } -> n
  | None -> Alcotest.failf "counter %s not registered" name

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_monotonic () =
  let rec loop i prev =
    if i < 1000 then begin
      let t = Obs.Clock.now_ns () in
      if Int64.compare t prev < 0 then
        Alcotest.failf "clock went backwards: %Ld then %Ld" prev t;
      loop (i + 1) t
    end
  in
  loop 0 (Obs.Clock.now_ns ());
  Alcotest.(check bool) "elapsed is nonnegative" true
    (Obs.Clock.elapsed_s (Obs.Clock.now_ns ()) >= 0.)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_arithmetic () =
  let c = Obs.Metrics.counter "test.obs.counter" in
  let base = Obs.Metrics.counter_value c in
  Obs.Metrics.incr c;
  Obs.Metrics.incr c;
  Obs.Metrics.add c 40;
  Alcotest.(check int) "incr/add accumulate" (base + 42)
    (Obs.Metrics.counter_value c);
  let c' = Obs.Metrics.counter "test.obs.counter" in
  Obs.Metrics.incr c';
  Alcotest.(check int) "registration is idempotent (same cell)"
    (base + 43) (Obs.Metrics.counter_value c)

let test_registry_and_snapshot () =
  let c = Obs.Metrics.counter "test.obs.registered" ~doc:"a counter" in
  Obs.Metrics.add c 15;
  (match Obs.Metrics.find "test.obs.registered" with
   | Some { Obs.Metrics.value = n; doc; _ } ->
     Alcotest.(check int) "find sees the count" 15 n;
     Alcotest.(check string) "doc is kept" "a counter" doc
   | None -> Alcotest.fail "counter not found in registry");
  let names = List.map (fun e -> e.Obs.Metrics.name)
      (Obs.Metrics.snapshot ~prefix:"test.obs." ()) in
  Alcotest.(check bool) "snapshot is name-sorted" true
    (names = List.sort compare names);
  Alcotest.(check bool) "prefix filters" true
    (List.for_all (String.starts_with ~prefix:"test.obs.") names)

(* ------------------------------------------------------------------ *)
(* Spans *)

(* Run [f] with spans recorded and return the recording. *)
let recorded f =
  Obs.Journal.start_spans ();
  Fun.protect
    ~finally:(fun () -> ignore (Obs.Journal.stop_spans ()))
    (fun () ->
      f ();
      Obs.Journal.stop_spans ())

let boundaries spans =
  List.map
    (fun (s : Obs.Journal.span) -> ((if s.begins then "B" else "E"), s.name))
    spans

let test_span_nesting_and_balance () =
  let spans =
    recorded (fun () ->
        Obs.Journal.with_span "outer" ~args:[ ("k", "v") ] (fun () ->
            Obs.Journal.with_span "inner" (fun () -> ())))
  in
  Alcotest.(check (list (pair string string)))
    "records are properly nested"
    [ ("B", "outer"); ("B", "inner"); ("E", "inner"); ("E", "outer") ]
    (boundaries spans);
  Alcotest.(check bool) "all on the main lane" true
    (List.for_all (fun (s : Obs.Journal.span) -> s.lane = 0) spans);
  Alcotest.(check (list (list (pair string string))))
    "args ride the begin record only"
    [ [ ("k", "v") ]; []; []; [] ]
    (List.map (fun (s : Obs.Journal.span) -> s.args) spans);
  let ts = List.map (fun (s : Obs.Journal.span) -> s.ts_ns) spans in
  Alcotest.(check bool) "timestamps never go backwards" true
    (ts = List.sort Int64.compare ts)

let test_span_closed_on_exception () =
  let spans =
    recorded (fun () ->
        Alcotest.check_raises "the body's exception propagates"
          (Failure "boom") (fun () ->
            Obs.Journal.with_span "doomed" (fun () -> failwith "boom")))
  in
  Alcotest.(check (list (pair string string)))
    "span still closed" [ ("B", "doomed"); ("E", "doomed") ]
    (boundaries spans)

let test_recording_off_by_default () =
  ignore (Obs.Journal.stop_spans ());
  Alcotest.(check bool) "nothing captures by default" false
    (Obs.Journal.capturing ());
  (* spans must still run their body and return its value *)
  Alcotest.(check int) "body runs" 7
    (Obs.Journal.with_span "off" (fun () -> 7));
  Alcotest.(check int) "nothing recorded when off" 0
    (List.length (Obs.Journal.stop_spans ()))

(* Random span shapes run as Parallel.map items: the recording at
   ~jobs:4 holds the same (name, args) multiset as at ~jobs:1, every
   lane balances and nests, each item keeps to one lane (its own, i + 1,
   under the fan-out), and a span whose body raises still closes. *)
type shape = Span of int * shape list | Boom of int

let rec run_shape item = function
  | Span (k, kids) ->
    Obs.Journal.with_span (Printf.sprintf "s%d" k)
      ~args:[ ("item", string_of_int item) ]
      (fun () -> List.iter (run_shape item) kids)
  | Boom k -> (
    try
      Obs.Journal.with_span (Printf.sprintf "boom%d" k)
        ~args:[ ("item", string_of_int item) ]
        (fun () -> raise Exit)
    with Exit -> ())

let shape_gen =
  QCheck.Gen.(
    sized_size (int_bound 12)
    @@ fix (fun self n ->
           if n = 0 then map (fun k -> Boom k) (int_bound 3)
           else
             frequency
               [
                 (1, map (fun k -> Boom k) (int_bound 3));
                 ( 4,
                   map2
                     (fun k kids -> Span (k, kids))
                     (int_bound 5)
                     (list_size (int_bound 3) (self (n / 2))) );
               ]))

let rec show_shape = function
  | Span (k, kids) ->
    Printf.sprintf "s%d[%s]" k (String.concat " " (List.map show_shape kids))
  | Boom k -> Printf.sprintf "boom%d" k

let rec booms = function
  | Boom _ -> 1
  | Span (_, kids) -> List.fold_left (fun n s -> n + booms s) 0 kids

(* Per-lane stacks: every end closes its lane's innermost open span. *)
let lanes_nest spans =
  let stacks = Hashtbl.create 8 in
  let stack l = Option.value (Hashtbl.find_opt stacks l) ~default:[] in
  List.for_all
    (fun (s : Obs.Journal.span) ->
      if s.begins then (
        Hashtbl.replace stacks s.lane (s.name :: stack s.lane);
        true)
      else
        match stack s.lane with
        | top :: rest when top = s.name ->
          Hashtbl.replace stacks s.lane rest;
          true
        | _ -> false)
    spans
  && Hashtbl.fold (fun _ st ok -> ok && st = []) stacks true

let item_lanes spans =
  List.filter_map
    (fun (s : Obs.Journal.span) ->
      Option.map
        (fun item -> (int_of_string item, s.lane))
        (List.assoc_opt "item" s.args))
    spans
  |> List.sort_uniq compare

let test_spans_under_domains =
  let items_arb =
    QCheck.make
      ~print:(fun items -> String.concat " | " (List.map show_shape items))
      QCheck.Gen.(
        (* one Boom per item guarantees a raising span in every case *)
        list_size (int_range 2 8)
          (map (fun s -> Span (0, [ s; Boom 9 ])) shape_gen))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"spans under domains" items_arb
       (fun items ->
         let run jobs =
           recorded (fun () ->
               ignore
                 (Parallel.map ~jobs
                    (fun (i, shape) -> run_shape i shape)
                    (List.mapi (fun i s -> (i, s)) items)))
         in
         let seq = run 1 and par = run 4 in
         let multiset spans =
           List.sort compare
             (List.map
                (fun (s : Obs.Journal.span) -> (s.name, s.args, s.begins))
                spans)
         in
         let n = List.length items in
         let booms_recorded spans =
           List.length
             (List.filter
                (fun (s : Obs.Journal.span) ->
                  String.starts_with ~prefix:"boom" s.name)
                spans)
         in
         multiset seq = multiset par
         && lanes_nest seq && lanes_nest par
         && item_lanes seq = List.init n (fun i -> (i, 0))
         && item_lanes par = List.init n (fun i -> (i, i + 1))
         && booms_recorded par
            = 2 * List.fold_left (fun acc s -> acc + booms s) 0 items))

(* A failing fan-out records what the sequential run records: the
   journal and spans of every item below the failing one, then the
   failing item's own up to its raise — and the flight recorder's
   bundle, dumped at the first failure noted in input order (every
   third item notes one without raising), holds the same journal. *)
let failing_fanout ~jobs ~fail items =
  Obs.Journal.reset ();
  let j = Obs.Journal.install () in
  let out = Filename.temp_file "paredown-obs" ".json" in
  Obs.Journal.arm_post_mortem ~out ();
  let spans =
    recorded (fun () ->
        match
          Parallel.map ~jobs
            (fun (i, shape) ->
              Obs.Journal.emit
                (Obs.Journal.Rejected { node = i; reason = "in" });
              run_shape i shape;
              if i mod 3 = 2 then Obs.Journal.note_failure "soft";
              if i = fail then begin
                Obs.Journal.note_failure (Printf.sprintf "item %d" i);
                raise Exit
              end;
              Obs.Journal.emit
                (Obs.Journal.Rejected { node = i; reason = "out" }))
            (List.mapi (fun i s -> (i, s)) items)
        with
        | _ -> Alcotest.fail "the failing item did not raise"
        | exception Exit -> ())
  in
  Obs.Journal.reset ();
  let bundle =
    match
      Obs.Json.of_string (In_channel.with_open_text out In_channel.input_all)
    with
    | Ok b ->
      List.map
        (fun f -> Option.map Obs.Json.to_string (Obs.Json.member f b))
        [ "reason"; "total"; "dropped"; "journal" ]
    | Error e -> Alcotest.failf "bundle: %s" e
  in
  Sys.remove out;
  (Obs.Journal.to_jsonl j, spans, bundle)

(* Item 1 of [0; 1; 2] emits one event inside a span, then raises:
   items 0 and 1 leave 2 events and 4 span records at every [jobs]. *)
let test_failing_item_keeps_captures () =
  List.iter
    (fun jobs ->
      Obs.Journal.reset ();
      let j = Obs.Journal.install () in
      let spans =
        recorded (fun () ->
            try
              ignore
                (Parallel.map ~jobs
                   (fun i ->
                     Obs.Journal.with_span "item" (fun () ->
                         Obs.Journal.emit
                           (Obs.Journal.Rejected
                              { node = i; reason = "probe" }));
                     if i = 1 then raise Exit)
                   [ 0; 1; 2 ])
            with Exit -> ())
      in
      Obs.Journal.reset ();
      Alcotest.(check (pair int int))
        (Printf.sprintf "events and span records at ~jobs:%d" jobs)
        (2, 4)
        (Obs.Journal.total j, List.length spans))
    [ 1; 2; 4 ]

let test_failing_fanout_jobs_invariant =
  let arb =
    QCheck.make
      ~print:(fun (items, fail) ->
        Printf.sprintf "fail=%d: %s" fail
          (String.concat " | " (List.map show_shape items)))
      QCheck.Gen.(
        list_size (int_range 2 8) shape_gen >>= fun items ->
        int_bound (List.length items - 1) >|= fun fail -> (items, fail))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"failing fan-out under domains" arb
       (fun (items, fail) ->
         let multiset spans =
           List.sort compare
             (List.map
                (fun (s : Obs.Journal.span) -> (s.name, s.args))
                spans)
         in
         let jsonl1, seq, bundle1 = failing_fanout ~jobs:1 ~fail items in
         let jsonl4, par, bundle4 = failing_fanout ~jobs:4 ~fail items in
         String.equal jsonl1 jsonl4
         && multiset seq = multiset par
         && lanes_nest seq && lanes_nest par
         && bundle1 = bundle4))

(* ------------------------------------------------------------------ *)
(* Chrome trace JSON *)

(* A strict-enough JSON validator (objects, arrays, strings with
   escapes, numbers, literals) — no JSON library is vendored, and the
   trace format is exactly this subset. *)
let validate_json s =
  let n = String.length s in
  let fail i msg = Alcotest.failf "invalid JSON at byte %d: %s" i msg in
  let rec skip_ws i =
    if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r')
    then skip_ws (i + 1)
    else i
  in
  let rec value i =
    let i = skip_ws i in
    if i >= n then fail i "eof"
    else
      match s.[i] with
      | '{' -> obj (skip_ws (i + 1)) true
      | '[' -> arr (skip_ws (i + 1)) true
      | '"' -> string_lit (i + 1)
      | 't' -> lit i "true"
      | 'f' -> lit i "false"
      | 'n' -> lit i "null"
      | '-' | '0' .. '9' -> number i
      | c -> fail i (Printf.sprintf "unexpected %C" c)
  and lit i word =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then i + l
    else fail i ("expected " ^ word)
  and number i =
    let j = ref (if s.[i] = '-' then i + 1 else i) in
    let digits start =
      let k = ref start in
      while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
      if !k = start then fail start "digit expected";
      !k
    in
    j := digits !j;
    if !j < n && s.[!j] = '.' then j := digits (!j + 1);
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      let k = !j + 1 in
      let k = if k < n && (s.[k] = '+' || s.[k] = '-') then k + 1 else k in
      j := digits k
    end;
    !j
  and string_lit i =
    if i >= n then fail i "unterminated string"
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' ->
        if i + 1 >= n then fail i "dangling escape"
        else
          (match s.[i + 1] with
           | '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' ->
             string_lit (i + 2)
           | 'u' ->
             if i + 5 < n then string_lit (i + 6) else fail i "short \\u"
           | c -> fail i (Printf.sprintf "bad escape %C" c))
      | c when Char.code c < 0x20 -> fail i "raw control char in string"
      | _ -> string_lit (i + 1)
  and obj i first =
    if i < n && s.[i] = '}' then i + 1
    else begin
      let i = if first then i else i in
      let i = skip_ws i in
      if i >= n || s.[i] <> '"' then fail i "object key expected";
      let i = skip_ws (string_lit (i + 1)) in
      if i >= n || s.[i] <> ':' then fail i "colon expected";
      let i = skip_ws (value (i + 1)) in
      if i < n && s.[i] = ',' then obj (skip_ws (i + 1)) false
      else if i < n && s.[i] = '}' then i + 1
      else fail i "comma or } expected"
    end
  and arr i first =
    if i < n && s.[i] = ']' then i + 1
    else begin
      ignore first;
      let i = skip_ws (value i) in
      if i < n && s.[i] = ',' then arr (skip_ws (i + 1)) false
      else if i < n && s.[i] = ']' then i + 1
      else fail i "comma or ] expected"
    end
  in
  let i = skip_ws (value 0) in
  if skip_ws i <> n then fail i "trailing garbage"

let chrome_of spans = Obs.Chrome.to_string (Obs.Chrome.of_spans spans)

let test_chrome_json_well_formed () =
  (* adversarial names/args: quotes, backslashes, newlines, controls *)
  let spans =
    recorded (fun () ->
        Obs.Journal.with_span "outer \"quoted\"" ~args:[ ("k\\", "v\n\t\x01") ]
          (fun () ->
            Obs.Journal.with_span "inner" ~args:[ ("a", "1"); ("b", "{}[]") ]
              (fun () -> ())))
  in
  let json = chrome_of spans in
  validate_json json;
  Alcotest.(check int) "4 events recorded" 4 (List.length spans);
  Alcotest.(check bool) "B/E phases present" true
    (Testlib.contains json "\"ph\":\"B\"" && Testlib.contains json "\"ph\":\"E\"");
  Alcotest.(check bool) "main lane is tid 1" true
    (Testlib.contains json "\"tid\":1," && not (Testlib.contains json "\"tid\":0"))

let test_chrome_empty_recording_valid () =
  validate_json (Obs.Chrome.to_string []);
  validate_json (chrome_of (recorded ignore))

let test_chrome_nested_same_timestamp () =
  (* Nested spans and instants interleaved at one timestamp, as happens
     when spans close faster than the clock granularity. *)
  let ev ph name args =
    { Obs.Chrome.ph; name; tid = 1; ts_us = 12.5; args }
  in
  let json =
    Obs.Chrome.to_string
      [
        ev Begin "outer" [];
        ev Instant "mark-1" [ ("k", "v") ];
        ev Begin "inner" [];
        ev Instant "mark-2" [];
        ev End "inner" [];
        ev End "outer" [];
      ]
  in
  validate_json json;
  match Obs.Json.of_string json with
  | Error msg -> Alcotest.failf "chrome document does not parse: %s" msg
  | Ok (Obs.Json.Arr events) ->
    Alcotest.(check int) "6 events" 6 (List.length events);
    let phase e =
      match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str with
      | Some p -> p
      | None -> Alcotest.fail "event without ph"
    in
    let count p = List.length (List.filter (fun e -> phase e = p) events) in
    Alcotest.(check int) "balanced B/E" (count "B") (count "E");
    Alcotest.(check int) "2 opens" 2 (count "B");
    Alcotest.(check int) "2 instants" 2 (count "i");
    let ts_values =
      List.filter_map
        (fun e -> Option.bind (Obs.Json.member "ts" e) Obs.Json.to_float)
        events
    in
    Alcotest.(check int) "every event has a ts" 6 (List.length ts_values);
    List.iter
      (fun v ->
        Alcotest.(check (float 0.)) "identical timestamps"
          (List.hd ts_values) v)
      ts_values
  | Ok _ -> Alcotest.fail "chrome document is not a JSON array"

(* Property: whatever the span names, arg keys, arg values and lane
   labels contain — any byte 0x00-0xff — the emitted document parses. *)
let test_chrome_escaping_property =
  let any_string = QCheck.string_gen QCheck.Gen.char in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"chrome JSON parses for any strings"
       QCheck.(triple any_string any_string any_string)
       (fun (name, key, value) ->
         let spans =
           recorded (fun () ->
               Obs.Journal.with_span name ~args:[ (key, value) ] ignore)
         in
         let json =
           Obs.Chrome.to_string
             ({ Obs.Chrome.ph = Thread_name; name = value; tid = 2;
                ts_us = 0.; args = [] }
              :: { Obs.Chrome.ph = Instant; name = value; tid = 2;
                   ts_us = 1.; args = [ (name, key) ] }
              :: Obs.Chrome.of_spans spans)
         in
         match Obs.Json.of_string json with
         | Ok _ -> validate_json json; true
         | Error msg ->
           QCheck.Test.fail_reportf "does not parse: %s\n%s" msg json))

let test_paredown_run_traces_spans () =
  let json =
    chrome_of (recorded (fun () -> ignore (Core.Paredown.run Testlib.podium)))
  in
  validate_json json;
  Alcotest.(check bool) "paredown.run span recorded" true
    (Testlib.contains json "\"name\":\"paredown.run\"")

(* The network observatory fans its trials out over Parallel.map, with
   a sim.settle span per settle on every worker: the traced document
   must parse, and hold the sequential run's spans. *)
let test_netobs_trace_under_jobs () =
  let settles jobs =
    let json =
      chrome_of
        (recorded (fun () ->
             ignore
               (Experiments.Netobs.observe_network ~jobs
                  ~name:"Two-Zone Security"
                  Designs.Library.two_zone_security.Designs.Design.network)))
    in
    match Obs.Json.of_string json with
    | Error msg -> Alcotest.failf "jobs %d trace does not parse: %s" jobs msg
    | Ok (Obs.Json.Arr events) ->
      List.length
        (List.filter
           (fun e ->
             Obs.Json.member "name" e = Some (Obs.Json.Str "sim.settle")
             && Obs.Json.member "ph" e = Some (Obs.Json.Str "B"))
           events)
    | Ok _ -> Alcotest.failf "jobs %d trace is not an array" jobs
  in
  let seq = settles 1 in
  Alcotest.(check bool) "settles traced" true (seq > 0);
  Alcotest.(check int) "jobs 4 traces the jobs 1 settles" seq (settles 4)

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_histogram_statistics () =
  let h = Obs.Histogram.create () in
  for i = 1 to 1000 do
    Obs.Histogram.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-6)) "sum is exact" 500500. (Obs.Histogram.sum h);
  Alcotest.(check (float 1e-6)) "mean is exact" 500.5 (Obs.Histogram.mean h);
  Alcotest.(check (float 0.)) "min is exact" 1. (Obs.Histogram.min_value h);
  Alcotest.(check (float 0.)) "max is exact" 1000. (Obs.Histogram.max_value h);
  (* log buckets at 4 sub-buckets/octave: quantiles within ~19% *)
  let within p expected =
    let v = Obs.Histogram.percentile h p in
    let err = Float.abs (v -. expected) /. expected in
    if err > 0.19 then
      Alcotest.failf "p%g = %g, more than 19%% from %g" p v expected
  in
  within 50. 500.;
  within 90. 900.;
  within 99. 990.;
  Alcotest.(check (float 0.)) "p0 clamps to min" 1.
    (Obs.Histogram.percentile h 0.);
  Alcotest.(check (float 0.)) "p100 clamps to max" 1000.
    (Obs.Histogram.percentile h 100.)

let test_histogram_empty_and_clear () =
  let h = Obs.Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Obs.Histogram.count h);
  Alcotest.(check (float 0.)) "empty percentile" 0.
    (Obs.Histogram.percentile h 99.);
  Obs.Histogram.observe h 5.;
  Obs.Histogram.clear h;
  Alcotest.(check int) "cleared" 0 (Obs.Histogram.count h);
  let s = Obs.Histogram.summary h in
  Alcotest.(check int) "summary of empty" 0 s.Obs.Histogram.s_count

(* Histogram.merge laws: the telemetry collector's determinism argument
   (doc/network-telemetry.md) rests on merge being associative and
   commutative on every statistic the reports read, so fold order over
   Monte-Carlo trials cannot matter. *)

let histogram_of values =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) values;
  h

(* Observations spanning bucket 0, the mid octaves, and values whose
   float sums stay exact (small integers), like the collector's tick
   latencies and packet counts. *)
let arbitrary_observations =
  QCheck.list_of_size (QCheck.Gen.int_range 0 40)
    (QCheck.map float_of_int (QCheck.int_range 0 5000))

let same_reading label a b =
  let eq =
    Obs.Histogram.count a = Obs.Histogram.count b
    && Obs.Histogram.sum a = Obs.Histogram.sum b
    && Obs.Histogram.min_value a = Obs.Histogram.min_value b
    && Obs.Histogram.max_value a = Obs.Histogram.max_value b
    && Obs.Histogram.bucket_counts a = Obs.Histogram.bucket_counts b
  in
  if not eq then
    QCheck.Test.fail_reportf
      "%s: count %d/%d sum %g/%g min %g/%g max %g/%g" label
      (Obs.Histogram.count a) (Obs.Histogram.count b)
      (Obs.Histogram.sum a) (Obs.Histogram.sum b)
      (Obs.Histogram.min_value a) (Obs.Histogram.min_value b)
      (Obs.Histogram.max_value a) (Obs.Histogram.max_value b);
  true

let test_histogram_merge_commutative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"merge is commutative"
       QCheck.(pair arbitrary_observations arbitrary_observations)
       (fun (xs, ys) ->
         let a = histogram_of xs and b = histogram_of ys in
         same_reading "a+b vs b+a" (Obs.Histogram.merge a b)
           (Obs.Histogram.merge b a)))

let test_histogram_merge_associative =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"merge is associative"
       QCheck.(
         triple arbitrary_observations arbitrary_observations
           arbitrary_observations)
       (fun (xs, ys, zs) ->
         let a = histogram_of xs
         and b = histogram_of ys
         and c = histogram_of zs in
         same_reading "(a+b)+c vs a+(b+c)"
           (Obs.Histogram.merge (Obs.Histogram.merge a b) c)
           (Obs.Histogram.merge a (Obs.Histogram.merge b c))))

let test_histogram_merge_identity =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"empty is the merge identity"
       arbitrary_observations
       (fun xs ->
         let a = histogram_of xs in
         same_reading "a+0 vs a"
           (Obs.Histogram.merge a (Obs.Histogram.create ()))
           a
         && same_reading "merge equals single histogram of all values"
              (Obs.Histogram.merge a (Obs.Histogram.create ()))
              (histogram_of xs)))

(* ------------------------------------------------------------------ *)
(* with_scope *)

let test_with_scope_deltas () =
  let c = Obs.Metrics.counter "test.obs.scope_counter" in
  Obs.Metrics.add c 5;
  let result, entries =
    Obs.Metrics.with_scope (fun () ->
        Obs.Metrics.add c 3;
        Obs.Metrics.add (Obs.Metrics.counter "test.obs.scope_new") 4;
        "done")
  in
  Alcotest.(check string) "result passes through" "done" result;
  let entry name =
    match List.find_opt (fun e -> e.Obs.Metrics.name = name) entries with
    | Some e -> e.Obs.Metrics.value
    | None -> Alcotest.failf "scope entry %s missing" name
  in
  Alcotest.(check int) "counter delta, not total" 3
    (entry "test.obs.scope_counter");
  Alcotest.(check int) "registered inside the scope: full value" 4
    (entry "test.obs.scope_new");
  Alcotest.(check int) "registry total is untouched" 8
    (Obs.Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* JSON *)

let test_json_round_trip () =
  let doc =
    Obs.Json.(
      Obj
        [
          ("s", Str "a \"b\"\n\t\x01c\\");
          ("n", Num 1.5);
          ("i", Num 42.);
          ("neg", Num (-0.25));
          ("arr", Arr [ Null; Bool true; Bool false; Str "" ]);
          ("empty_obj", Obj []);
          ("empty_arr", Arr []);
        ])
  in
  let s = Obs.Json.to_string doc in
  validate_json s;
  (match Obs.Json.of_string s with
   | Ok doc' -> Alcotest.(check bool) "round trips structurally" true (doc = doc')
   | Error msg -> Alcotest.failf "round trip fails: %s" msg);
  let pretty = Obs.Json.to_string ~indent:2 doc in
  validate_json pretty;
  match Obs.Json.of_string pretty with
  | Ok doc' -> Alcotest.(check bool) "pretty round trips" true (doc = doc')
  | Error msg -> Alcotest.failf "pretty round trip fails: %s" msg

let test_json_parses_escapes () =
  (match Obs.Json.of_string "\"\\u0041\\n\\u00e9\"" with
   | Ok (Obs.Json.Str s) ->
     Alcotest.(check string) "unicode escapes decode to UTF-8" "A\n\xc3\xa9" s
   | Ok _ | Error _ -> Alcotest.fail "escape string did not parse");
  (match Obs.Json.of_string "\"\\ud83d\\ude00\"" with
   | Ok (Obs.Json.Str s) ->
     Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" s
   | Ok _ | Error _ -> Alcotest.fail "surrogate pair did not parse");
  List.iter
    (fun bad ->
      match Obs.Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" bad)
    [ "{"; "[1,]"; "{\"a\":}"; "\"\\q\""; "01"; "\"unterminated"; "1 2";
      "\"\\ud800\"" ]

(* Hostile nesting must return Error at the documented bound, not blow
   the parser's stack.  The boundary is pinned: depth = default_max_depth
   parses, one deeper does not. *)
let nested depth = String.make depth '[' ^ String.make depth ']'

let test_json_depth_limit () =
  let at_limit = nested Obs.Json.default_max_depth in
  (match Obs.Json.of_string at_limit with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "depth %d rejected: %s" Obs.Json.default_max_depth e);
  (match Obs.Json.of_string (nested (Obs.Json.default_max_depth + 1)) with
   | Ok _ -> Alcotest.fail "depth max+1 accepted"
   | Error e ->
     Alcotest.(check bool) "error names the bound" true
       (Testlib.contains e (string_of_int Obs.Json.default_max_depth)));
  (match Obs.Json.of_string ~max_depth:3 "[[[1]]]" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "custom depth 3 rejected: %s" e);
  (match Obs.Json.of_string ~max_depth:3 "[[[[1]]]]" with
   | Ok _ -> Alcotest.fail "custom depth 3 exceeded but accepted"
   | Error _ -> ());
  (* mixed containers count the same *)
  match Obs.Json.of_string ~max_depth:2 "{\"a\":[{\"b\":1}]}" with
  | Ok _ -> Alcotest.fail "object/array mix undercounted"
  | Error _ -> ()

let test_json_escape_complete () =
  for code = 0 to 31 do
    let escaped = Obs.Json.escape (String.make 1 (Char.chr code)) in
    Alcotest.(check bool)
      (Printf.sprintf "control 0x%02x is escaped" code)
      true
      (String.length escaped >= 2 && escaped.[0] = '\\')
  done;
  Alcotest.(check string) "quote" "\\\"" (Obs.Json.escape "\"");
  Alcotest.(check string) "backslash" "\\\\" (Obs.Json.escape "\\");
  Alcotest.(check string) "plain text untouched" "abc" (Obs.Json.escape "abc")

(* ------------------------------------------------------------------ *)
(* Snapshots *)

let plain_snapshot ?(metrics = []) ?(times_ns = []) () =
  {
    Obs.Snapshot.git_rev = None;
    ocaml_version = Sys.ocaml_version;
    config = [];
    metrics;
    times_ns;
  }

let test_snapshot_round_trip () =
  let c = Obs.Metrics.counter "test.obs.snap_counter" in
  Obs.Metrics.add c 7;
  let snap =
    Obs.Snapshot.capture ~config:[ ("repeats", "3") ]
      ~times_ns:[ ("perf.demo_ns", 1.5e6) ] ()
  in
  let s = Obs.Snapshot.to_string snap in
  validate_json s;
  match Obs.Snapshot.of_string s with
  | Error msg -> Alcotest.failf "snapshot does not parse back: %s" msg
  | Ok snap' ->
    Alcotest.(check string) "snapshot round trips byte for byte" s
      (Obs.Snapshot.to_string snap');
    Alcotest.(check bool) "counter survives" true
      (List.assoc_opt "test.obs.snap_counter" snap'.Obs.Snapshot.metrics
       <> None);
    Alcotest.(check (option (float 0.))) "time survives" (Some 1.5e6)
      (List.assoc_opt "perf.demo_ns" snap'.Obs.Snapshot.times_ns)

let test_snapshot_rejects_bad_documents () =
  List.iter
    (fun doc ->
      match Obs.Snapshot.of_string doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted bad snapshot %s" doc)
    [
      "not json";
      "{}";
      "{\"schema\":\"other\",\"version\":1}";
      (* right schema, wrong version *)
      "{\"schema\":\"paredown-perf-snapshot\",\"version\":99,\
       \"ocaml_version\":\"5\",\"config\":{},\"times_ns\":{},\
       \"metrics\":{}}";
    ]

let test_snapshot_gate () =
  let base =
    plain_snapshot
      ~metrics:[ ("core.paredown.fit_checks", Obs.Snapshot.Int 1000) ]
      ~times_ns:[ ("perf.sim_ns", 10e6); ("perf.tiny_ns", 1e3) ]
      ()
  in
  Alcotest.(check int) "self-compare passes" 0
    (List.length (Obs.Snapshot.gate ~base base));
  (* 10x wall-time blowup on a millisecond-scale group: gated, named *)
  let slow =
    plain_snapshot
      ~metrics:[ ("core.paredown.fit_checks", Obs.Snapshot.Int 1000) ]
      ~times_ns:[ ("perf.sim_ns", 100e6); ("perf.tiny_ns", 1e3) ]
      ()
  in
  (match Obs.Snapshot.gate ~base slow with
   | [ r ] ->
     Alcotest.(check string) "offending metric is named" "perf.sim_ns"
       r.Obs.Snapshot.r_metric;
     Alcotest.(check (float 1e-9)) "ratio is 10x" 10. r.Obs.Snapshot.r_ratio
   | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
  (* the same ratio below the absolute floor: jitter, not a regression *)
  let jitter =
    plain_snapshot
      ~metrics:[ ("core.paredown.fit_checks", Obs.Snapshot.Int 1000) ]
      ~times_ns:[ ("perf.sim_ns", 10e6); ("perf.tiny_ns", 10e3) ]
      ()
  in
  Alcotest.(check int) "sub-floor growth does not gate" 0
    (List.length (Obs.Snapshot.gate ~base jitter));
  (* a deterministic counter creeping 2x: gated even though times hold *)
  let more_work =
    plain_snapshot
      ~metrics:[ ("core.paredown.fit_checks", Obs.Snapshot.Int 3000) ]
      ~times_ns:[ ("perf.sim_ns", 10e6); ("perf.tiny_ns", 1e3) ]
      ()
  in
  match Obs.Snapshot.gate ~base more_work with
  | [ r ] ->
    Alcotest.(check string) "counter regression named"
      "core.paredown.fit_checks" r.Obs.Snapshot.r_metric
  | rs -> Alcotest.failf "expected 1 counter regression, got %d"
            (List.length rs)

(* A snapshot as written while the registry still kept histograms
   (same schema version): a counter, a non-integer number, a time, and
   one distribution summary, an object the loader skips. *)
let schema1_doc =
  {|{
  "schema": "paredown-perf-snapshot",
  "version": 1,
  "git_rev": null,
  "ocaml_version": "5.1.1",
  "config": {
    "repeats": "3"
  },
  "times_ns": {
    "perf.sim_ns": 1500000
  },
  "metrics": {
    "codegen.c_bytes": 2.5,
    "core.paredown.fit_checks": 1360,
    "sim.settle_events": {
      "count": 3,
      "sum": 321,
      "mean": 107,
      "min": 1,
      "p50": 19.0273,
      "p90": 304.437,
      "p99": 304.437,
      "max": 300
    }
  }
}
|}

let test_snapshot_skips_distributions () =
  match Obs.Snapshot.of_string schema1_doc with
  | Error msg -> Alcotest.failf "schema-1 snapshot does not load: %s" msg
  | Ok snap ->
    Alcotest.(check (list string)) "the distribution is skipped"
      [ "codegen.c_bytes"; "core.paredown.fit_checks" ]
      (List.map fst snap.Obs.Snapshot.metrics);
    Alcotest.(check bool) "numbers keep their values" true
      (snap.Obs.Snapshot.metrics
       = [ ("codegen.c_bytes", Obs.Snapshot.Float 2.5);
           ("core.paredown.fit_checks", Obs.Snapshot.Int 1360) ]);
    Alcotest.(check (option (float 0.))) "time survives" (Some 1.5e6)
      (List.assoc_opt "perf.sim_ns" snap.Obs.Snapshot.times_ns)

(* The committed perf baseline predates the counter-only registry: read
   independently as JSON, its 52 numeric metrics must load with their
   committed values, and its 11 distribution objects must be skipped. *)
let test_committed_baseline_loads () =
  let path = "../bench/baseline.json" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fields =
    match Result.map (Obs.Json.member "metrics") (Obs.Json.of_string text) with
    | Ok (Some (Obs.Json.Obj fields)) -> fields
    | _ -> Alcotest.failf "%s has no metrics object" path
  in
  let counters =
    List.filter_map
      (function
        | k, Obs.Json.Num v -> Some (k, int_of_float v) | _, _ -> None)
      fields
  in
  Alcotest.(check (pair int int)) "52 counters, 11 distributions" (52, 11)
    (List.length counters, List.length fields - List.length counters);
  match Obs.Snapshot.read_file path with
  | Error msg -> Alcotest.failf "%s does not load: %s" path msg
  | Ok snap ->
    let loaded =
      List.map
        (function
          | k, Obs.Snapshot.Int n -> (k, n)
          | k, Obs.Snapshot.Float v -> Alcotest.failf "%s reads %g" k v)
        snap.Obs.Snapshot.metrics
    in
    Alcotest.(check (list (pair string int)))
      "counters read their committed values" (List.sort compare counters)
      (List.sort compare loaded)

(* Mutants of a schema-1 snapshot (a counter, a non-integer, a
   distribution object and a time) load as Ok or Error, never raise. *)
let test_snapshot_loader_robustness =
  Testlib.loader_never_raises ~count:20_000 ~seed:22 ~name:"mutated snapshot"
    schema1_doc Obs.Snapshot.of_string

(* ------------------------------------------------------------------ *)
(* Profile *)

let test_profile_self_time () =
  let span ?(lane = 0) begins name ts =
    { Obs.Journal.lane; name; args = []; ts_ns = Int64.of_int ts; begins }
  in
  (* a worker lane's span interleaves with the main lane's: it is
     neither a child of "outer" nor charged to it *)
  let rows =
    Obs.Profile.of_spans
      [
        span true "outer" 0;
        span ~lane:1 true "worker" 50;
        span true "inner" 100;
        span ~lane:1 false "worker" 250;
        span false "inner" 300;
        span true "inner" 400;
        span false "inner" 500;
        span false "outer" 1000;
      ]
  in
  let row name =
    match List.find_opt (fun r -> r.Obs.Profile.name = name) rows with
    | Some r -> r
    | None -> Alcotest.failf "no profile row for %s" name
  in
  let outer = row "outer" and inner = row "inner" and worker = row "worker" in
  Alcotest.(check int) "outer calls" 1 outer.Obs.Profile.calls;
  Alcotest.(check int) "inner calls" 2 inner.Obs.Profile.calls;
  Alcotest.(check (float 0.)) "inner total" 300. inner.Obs.Profile.total_ns;
  Alcotest.(check (float 0.)) "inner self = total (leaf)" 300.
    inner.Obs.Profile.self_ns;
  Alcotest.(check (float 0.)) "outer total" 1000. outer.Obs.Profile.total_ns;
  Alcotest.(check (float 0.)) "outer self excludes children" 700.
    outer.Obs.Profile.self_ns;
  Alcotest.(check (float 0.)) "worker lane keeps its own stack" 200.
    worker.Obs.Profile.self_ns;
  (* nearest-rank quantiles of the durations 200 and 100 *)
  Alcotest.(check (float 0.)) "inner p50" 100. inner.Obs.Profile.p50_ns;
  Alcotest.(check (float 0.)) "inner p99" 200. inner.Obs.Profile.p99_ns;
  Alcotest.(check (float 0.)) "one call: p50 = total" 1000.
    outer.Obs.Profile.p50_ns;
  (* a hundred back-to-back spans lasting 1 .. 100 ns, in shuffled order *)
  let durations = List.init 100 (fun i -> ((i * 37) mod 100) + 1) in
  let _, many =
    List.fold_left
      (fun (ts, acc) d ->
        (ts + d, span false "tick" (ts + d) :: span true "tick" ts :: acc))
      (0, []) durations
  in
  (match Obs.Profile.of_spans (List.rev many) with
   | [ tick ] ->
     Alcotest.(check int) "tick calls" 100 tick.Obs.Profile.calls;
     Alcotest.(check (float 0.)) "tick p50" 50. tick.Obs.Profile.p50_ns;
     Alcotest.(check (float 0.)) "tick p99" 99. tick.Obs.Profile.p99_ns
   | rows ->
     Alcotest.failf "%d profile rows for one span name" (List.length rows));
  let table = Obs.Profile.to_table rows in
  Alcotest.(check bool) "table leads with the biggest self time" true
    (Testlib.contains table "outer")

(* ------------------------------------------------------------------ *)
(* The instrumented pipeline: §4.2 closed form via the counter *)

let test_fit_check_counter_matches_closed_form () =
  List.iter
    (fun n ->
      let g = Randgen.Generator.worst_case ~inner:n in
      let before = counter_value fit_checks_counter in
      let r = Core.Paredown.run g in
      let counted = counter_value fit_checks_counter - before in
      let expected = n * (n + 1) / 2 in
      Alcotest.(check int)
        (Printf.sprintf "counter delta = n(n+1)/2 for n=%d" n)
        expected counted;
      Alcotest.(check int)
        (Printf.sprintf "counter agrees with per-run stats for n=%d" n)
        r.Core.Paredown.stats.Core.Paredown.fit_checks counted)
    [ 3; 5; 10; 20; 40 ]

let test_scale_worst_case_reports_closed_form () =
  let points = Experiments.Scale.run_worst_case ~sizes:[ 5; 10 ] () in
  List.iter
    (fun p ->
      Alcotest.(check (option int)) "expected column is the closed form"
        (Some (Experiments.Scale.closed_form p.Experiments.Scale.inner))
        p.Experiments.Scale.expected_fit_checks;
      Alcotest.(check (option int)) "measured equals closed form"
        (Some p.Experiments.Scale.fit_checks)
        p.Experiments.Scale.expected_fit_checks)
    points;
  Alcotest.(check bool) "table carries the ok mark" true
    (Testlib.contains (Experiments.Scale.to_table points) "ok")

let test_exhaustive_deadline_counter () =
  let before = counter_value "core.exhaustive.deadline_hits" in
  (* 14 inner blocks exhaustively with a ~zero deadline must time out *)
  let g =
    Randgen.Generator.generate ~rng:(Prng.create 5) ~inner:14 ()
  in
  let r = Core.Exhaustive.run ~deadline_s:0.0 g in
  Alcotest.(check bool) "search timed out" true
    (r.Core.Exhaustive.outcome = Core.Exhaustive.Timed_out);
  Alcotest.(check int) "deadline hit counted" (before + 1)
    (counter_value "core.exhaustive.deadline_hits")

let test_sim_packet_counter_tracks_engine () =
  let before = counter_value "sim.packets_sent" in
  let g = Testlib.podium in
  let engine = Sim.Engine.create g in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 3)
      ~sensors:(Netlist.Graph.sensors g) ~steps:10 ~spacing:10
  in
  ignore (Sim.Stimulus.settled_outputs engine script);
  let sent = counter_value "sim.packets_sent" - before in
  Alcotest.(check int) "global counter matches the engine's own count"
    (Sim.Engine.packet_count engine) sent;
  Alcotest.(check bool) "some packets flowed" true (sent > 0)

(* What `paredown simulate "Two-Zone Security" --steps 30 --metrics`
   prints after its run: the settle counters, and no distributions
   block (a mean settle size is sim.settle_iterations / sim.settles). *)
let test_simulate_metrics_table () =
  let design = Option.get (Designs.Library.find "Two-Zone Security") in
  let g = design.Designs.Design.network in
  let script =
    Sim.Stimulus.random ~rng:(Prng.create 1)
      ~sensors:(Netlist.Graph.sensors g) ~steps:30 ~spacing:20
  in
  ignore (Sim.Stimulus.settled_outputs (Sim.Engine.create g) script);
  let table = Obs.Metrics.to_table ~omit_zero:true () in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " listed") true
        (Testlib.contains table name))
    [ "sim.settles"; "sim.settle_iterations" ];
  Alcotest.(check bool) "no distributions block" false
    (Testlib.contains table "distributions:")

(* ------------------------------------------------------------------ *)
(* Flush: re-armable exit writers.  Re-arming a slot must replace its
   hook (a long-lived process arming per batch must not accumulate
   closures), disarm must remove it, and flushing runs hooks in slot
   order with per-hook exception containment. *)

let test_flush_rearm_no_growth () =
  let base = Obs.Flush.armed_count () in
  let fired = ref 0 in
  for _ = 1 to 100 do
    Obs.Flush.arm ~slot:"test.obs.flush" (fun () -> incr fired);
    Obs.Flush.flush ~slot:"test.obs.flush"
  done;
  Alcotest.(check int) "100 arm/flush cycles keep one hook" (base + 1)
    (Obs.Flush.armed_count ());
  Alcotest.(check int) "each flush ran the current hook" 100 !fired;
  Obs.Flush.disarm ~slot:"test.obs.flush";
  Alcotest.(check int) "disarm removes it" base (Obs.Flush.armed_count ());
  (* flushing a disarmed slot is a no-op, not an error *)
  Obs.Flush.flush ~slot:"test.obs.flush";
  Alcotest.(check int) "no ghost hook" 100 !fired

let test_flush_rearm_replaces () =
  let hits = ref [] in
  Obs.Flush.arm ~slot:"test.obs.replace" (fun () -> hits := `Old :: !hits);
  Obs.Flush.arm ~slot:"test.obs.replace" (fun () -> hits := `New :: !hits);
  Obs.Flush.flush ~slot:"test.obs.replace";
  Obs.Flush.disarm ~slot:"test.obs.replace";
  Alcotest.(check bool) "only the latest hook runs" true (!hits = [ `New ])

(* ------------------------------------------------------------------ *)
(* Lru: the bounded recency map under the estimator memo cache and the
   service solution cache. *)

let test_lru_eviction_order () =
  let t = Obs.Lru.create ~capacity:3 in
  List.iter (fun k -> Obs.Lru.put t k (String.length k)) [ "a"; "b"; "c" ];
  Alcotest.(check int) "full" 3 (Obs.Lru.length t);
  (* touching "a" promotes it; the next insert evicts "b" *)
  Alcotest.(check (option int)) "find hits" (Some 1) (Obs.Lru.find t "a");
  Obs.Lru.put t "d" 4;
  Alcotest.(check int) "evicted one" 1 (Obs.Lru.evictions t);
  Alcotest.(check bool) "b is the victim" false (Obs.Lru.mem t "b");
  Alcotest.(check bool) "a survived its promotion" true (Obs.Lru.mem t "a");
  (* overwrite is not an insert: no eviction *)
  Obs.Lru.put t "a" 10;
  Alcotest.(check int) "overwrite evicts nothing" 1 (Obs.Lru.evictions t);
  Alcotest.(check (option int)) "overwrite sticks" (Some 10)
    (Obs.Lru.find t "a")

let test_lru_fold_reload_preserves_recency () =
  let t = Obs.Lru.create ~capacity:4 in
  List.iter (fun k -> Obs.Lru.put t k k) [ "w"; "x"; "y"; "z" ];
  ignore (Obs.Lru.find t "w");
  (* reload oldest-first into a fresh map: same contents, same recency *)
  let t' = Obs.Lru.create ~capacity:4 in
  Obs.Lru.fold_oldest_first (fun () k v -> Obs.Lru.put t' k v) t ();
  Obs.Lru.put t' "new" "new";
  Alcotest.(check bool) "reload evicts the same victim (x)" false
    (Obs.Lru.mem t' "x");
  Alcotest.(check bool) "promoted key survives reload" true
    (Obs.Lru.mem t' "w")

let () =
  Alcotest.run "obs"
    [
      ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic ] );
      ( "metrics",
        [
          Alcotest.test_case "counter arithmetic" `Quick
            test_counter_arithmetic;
          Alcotest.test_case "registry and snapshot" `Quick
            test_registry_and_snapshot;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting and balance" `Quick
            test_span_nesting_and_balance;
          Alcotest.test_case "closed on exception" `Quick
            test_span_closed_on_exception;
          Alcotest.test_case "off by default" `Quick
            test_recording_off_by_default;
          test_spans_under_domains;
          Alcotest.test_case "a failing item keeps its captures" `Quick
            test_failing_item_keeps_captures;
          test_failing_fanout_jobs_invariant;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "well-formed JSON" `Quick
            test_chrome_json_well_formed;
          Alcotest.test_case "empty recording" `Quick
            test_chrome_empty_recording_valid;
          Alcotest.test_case "nested + instants at one timestamp" `Quick
            test_chrome_nested_same_timestamp;
          test_chrome_escaping_property;
          Alcotest.test_case "paredown spans" `Quick
            test_paredown_run_traces_spans;
          Alcotest.test_case "netobs spans under --jobs" `Quick
            test_netobs_trace_under_jobs;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "statistics" `Quick test_histogram_statistics;
          Alcotest.test_case "empty and clear" `Quick
            test_histogram_empty_and_clear;
          test_histogram_merge_commutative;
          test_histogram_merge_associative;
          test_histogram_merge_identity;
        ] );
      ( "scope",
        [
          Alcotest.test_case "with_scope deltas" `Quick
            test_with_scope_deltas;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "escape decoding" `Quick
            test_json_parses_escapes;
          Alcotest.test_case "escaping is complete" `Quick
            test_json_escape_complete;
          Alcotest.test_case "nesting depth limit" `Quick
            test_json_depth_limit;
        ] );
      ( "flush",
        [
          Alcotest.test_case "re-arming does not grow" `Quick
            test_flush_rearm_no_growth;
          Alcotest.test_case "re-arm replaces the hook" `Quick
            test_flush_rearm_replaces;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction and promotion" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "oldest-first fold reloads recency" `Quick
            test_lru_fold_reload_preserves_recency;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round trip" `Quick test_snapshot_round_trip;
          Alcotest.test_case "bad documents rejected" `Quick
            test_snapshot_rejects_bad_documents;
          Alcotest.test_case "regression gate" `Quick test_snapshot_gate;
          Alcotest.test_case "schema-1 distributions skipped" `Quick
            test_snapshot_skips_distributions;
          Alcotest.test_case "committed baseline loads" `Quick
            test_committed_baseline_loads;
          test_snapshot_loader_robustness;
        ] );
      ( "profile",
        [
          Alcotest.test_case "self-time accounting" `Quick
            test_profile_self_time;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "fit checks = n(n+1)/2 (worst case)" `Quick
            test_fit_check_counter_matches_closed_form;
          Alcotest.test_case "scale table closed form" `Quick
            test_scale_worst_case_reports_closed_form;
          Alcotest.test_case "exhaustive deadline hits" `Quick
            test_exhaustive_deadline_counter;
          Alcotest.test_case "sim packet counter" `Quick
            test_sim_packet_counter_tracks_engine;
          Alcotest.test_case "simulate --metrics has no distributions" `Quick
            test_simulate_metrics_table;
        ] );
    ]

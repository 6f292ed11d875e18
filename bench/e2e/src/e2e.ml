(* The end-to-end benchmark.

     e2e run --workload W --seed S --duration SECONDS
             --paredown PATH --workdir DIR [--trace FILE] [--json OUT]
     e2e agree [--benchmark BENCHMARK.json] A.json... [-- B.json...]

   [run] prints every metric by name with its unit, then, as its last
   line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics untraced, the per-layer metrics with --trace.
   See README.md next to this file. *)

let workloads = [ "synth-table1"; "search-random"; "serve-mixed"; "reliability-sweep" ]

let run argv =
  let workload = ref "" and seed = ref 1 and duration = ref 30. in
  let trace = ref None and json = ref None in
  let paredown = ref "" and workdir = ref "." in
  let specs =
    [ ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "S input seed");
      ("--duration", Arg.Set_float duration, "SECONDS timed window");
      ("--trace", Arg.String (fun f -> trace := Some f), "FILE traced run; Chrome trace to FILE");
      ("--json", Arg.String (fun f -> json := Some f), "OUT also write the result as JSON");
      ("--paredown", Arg.Set_string paredown, "PATH the paredown CLI");
      ("--workdir", Arg.Set_string workdir, "DIR working files (server cache store)") ]
  in
  Arg.parse_argv ~current:(ref 0) argv specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e run --workload W --seed S --duration SECONDS --paredown PATH --workdir DIR";
  let paredown = !paredown and seed = !seed and dir = !workdir in
  if not (Sys.file_exists paredown) then failwith ("no paredown CLI at " ^ paredown);
  let setup () =
    match !workload with
    | "synth-table1" -> Synth.setup ~paredown ~seed
    | "search-random" -> Search.setup ~seed
    | "serve-mixed" -> Serve.setup ~paredown ~seed ~dir
    | "reliability-sweep" -> Relsweep.setup ~seed
    | w -> failwith ("unknown workload " ^ w)
  in
  let r = Harness.run ~setup ~seconds:!duration ~trace_file:!trace in
  let metrics =
    Obs.Json.Obj
      (List.map
         (fun (name, unit, v) ->
           (name, Obs.Json.Obj [ ("value", Obs.Json.Num v); ("unit", Obs.Json.Str unit) ]))
         r.Harness.metrics)
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-36s %14.6g %s\n" name v unit)
    r.Harness.metrics;
  Printf.printf "input_digest %s\noutput_digest %s\nerror_rate %g (%d of %d)\n"
    r.Harness.input_digest r.Harness.output_digest
    (float r.Harness.failed /. float (max 1 r.Harness.attempted))
    r.Harness.failed r.Harness.attempted;
  let head =
    [ ("correct", Obs.Json.Bool r.Harness.correct);
      ("attempted", Obs.Json.Num (float r.Harness.attempted));
      ("failed", Obs.Json.Num (float r.Harness.failed)) ]
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      output_string oc
        (Obs.Json.to_string ~indent:1
           (Obs.Json.Obj
              ([ ("workload", Obs.Json.Str !workload);
                 ("seed", Obs.Json.Num (float seed));
                 ("traced", Obs.Json.Bool (!trace <> None));
                 ("input_digest", Obs.Json.Str r.Harness.input_digest);
                 ("output_digest", Obs.Json.Str r.Harness.output_digest) ]
              @ head @ [ ("metrics", metrics) ])));
      output_char oc '\n';
      close_out oc)
    !json;
  print_endline (Obs.Json.to_string (Obs.Json.Obj (head @ [ ("metrics", metrics) ])))

let agree args =
  let benchmark, args =
    match args with
    | "--benchmark" :: b :: rest -> (b, rest)
    | _ -> ("BENCHMARK.json", args)
  in
  let rec split acc = function
    | "--" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> (List.rev acc, [])
  in
  let a, b = split [] args in
  if a = [] then failwith "agree: no run files";
  Agree.main ~benchmark a b

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: _ -> run (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  | _ :: "agree" :: rest -> agree rest
  | _ ->
    prerr_endline "usage: e2e run ... | e2e agree A.json... [-- B.json...]";
    exit 2

(* synth-table1: the CLI's `synth --verify` sequence on the 15 Table 1
   designs, through public calls.  One op is one design; a pass is all
   15.  The seed picks each design's co-simulation seed. *)

module Graph = Netlist.Graph

let span = Spans.with_span

type reference = { report : string; summary : string; tally : Codegen.Verify.tally }

let setup ~paredown ~seed =
  let rng = Prng.create seed in
  let inputs =
    List.map
      (fun (d : Designs.Design.t) ->
        ( d.Designs.Design.name,
          Netlist.Textio.to_string ~name:d.Designs.Design.name
            d.Designs.Design.network,
          Prng.int rng 1_000_000 ))
      Designs.Library.table1
  in
  (* The reference each op must reproduce, and the CLI gate: `paredown
     synth D --verify` prints the same solution report and verifier
     summary line. *)
  let refs =
    List.map
      (fun (name, text, _) ->
        let _, g = Netlist.Textio.of_string text in
        let sol = (Core.Paredown.run g).Core.Paredown.solution in
        let report = Service.Oneshot.solution_report g sol in
        let v = Codegen.Verify.check_solution g sol in
        let summary = Codegen.Verify.summary v in
        let out, ok = Common.capture_stdout paredown [ "synth"; name; "--verify" ] in
        if not (ok && Common.contains ~sub:report out
                && Common.contains ~sub:(summary ^ "\n") out)
        then Common.gate_fail ("paredown synth --verify disagrees on " ^ name);
        { report; summary; tally = Codegen.Verify.tally v })
      inputs
  in
  let op (name, text, cosim_seed) r =
    let run () =
      let _, g = span "netlist.textio" (fun () -> Netlist.Textio.of_string text) in
      let sol =
        span "core.paredown" (fun () -> (Core.Paredown.run g).Core.Paredown.solution)
      in
      let report = span "service.report" (fun () -> Service.Oneshot.solution_report g sol) in
      let rw = span "codegen.replace" (fun () -> Codegen.Replace.apply g sol) in
      let g' = rw.Codegen.Replace.network in
      let c =
        span "codegen.c_emit" (fun () ->
            List.map
              (fun id ->
                let d = Graph.descriptor g' id in
                Codegen.C_emit.program ~block_name:name
                  ~n_inputs:d.Eblock.Descriptor.n_inputs
                  ~n_outputs:d.Eblock.Descriptor.n_outputs
                  d.Eblock.Descriptor.behavior)
              rw.Codegen.Replace.programmable_ids)
      in
      let eq =
        span "sim.equiv" (fun () ->
            Sim.Equiv.check_random ~reference:g ~candidate:g' ~seed:cosim_seed
              ~steps:60)
      in
      let v = span "codegen.verify" (fun () -> Codegen.Verify.check_solution g sol) in
      fun () ->
        let t = Codegen.Verify.tally v in
        let summary = Codegen.Verify.summary v in
        let error =
          if Result.is_error eq then Some "settled outputs differ"
          else if t.Codegen.Verify.failed + t.Codegen.Verify.skipped > 0 then
            Some ("verifier: " ^ summary)
          else if report <> r.report || summary <> r.summary then
            Some "output differs from the reference"
          else None
        in
        {
          Common.output = String.concat "\n" (report :: summary :: c);
          error;
          blocks = (Graph.inner_count g, Core.Solution.total_inner_after g sol);
          tag = "";
        }
    in
    { Common.key = name; run }
  in
  let ops = List.map2 op inputs refs in
  let partitions, cosim =
    List.fold_left
      (fun (p, c) r ->
        let t = r.tally in
        ( p + t.Codegen.Verify.proven + t.bounded + t.cosim_passed + t.failed
          + t.skipped,
          c + t.cosim_passed ))
      (0, 0) refs
  in
  Common.in_process ~warmup:3
    ~input_digest:
      (Common.hex
         (String.concat "\n"
            (List.map (fun (_, t, s) -> t ^ string_of_int s) inputs)))
    ~extras:(fun () ->
      [ ("codegen.verify.cosim_share", float cosim /. float (max 1 partitions)) ])
    (fun _ -> ops)

(* search-random: partition seeded random designs the way one Table 2
   sample is measured — PareDown, plus exhaustive search with no
   deadline on designs of at most 10 inner blocks — and the §4.2
   worst case.  Sim, codegen and service stay out of the path. *)

let span = Spans.with_span

(* (inner blocks, designs) in one draw of the list, plus the worst
   cases.  A pass runs [draws] independent draws, so the few heavy
   designs that set throughput and the tail are averaged over three
   samples instead of one. *)
let sizes =
  [ (4, 4); (6, 4); (8, 4); (9, 4); (10, 4); (20, 8); (45, 8); (100, 4);
    (200, 2); (465, 1) ]

let draws = 3

let worst_cases = [ 40; 100 ]
let exhaustive_limit = 10

let setup ~seed =
  let rng = Prng.create seed in
  let designs =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun (inner, n) ->
            List.init n (fun i ->
                ( Printf.sprintf "random-%d-%d-%d" d inner i,
                  Randgen.Generator.generate ~rng:(Prng.split rng) ~inner () )))
          sizes
        @ List.map
            (fun inner ->
              (Printf.sprintf "worst-%d-%d" d inner, Randgen.Generator.worst_case ~inner))
            worst_cases)
      (List.init draws Fun.id)
  in
  (* Per-design (PareDown, exhaustive) totals, for the optimality gap. *)
  let gaps = Hashtbl.create 32 in
  let op (key, g) =
    let inner = Netlist.Graph.inner_count g in
    let run () =
      let pd =
        span "core.paredown" (fun () -> (Core.Paredown.run g).Core.Paredown.solution)
      in
      let ex =
        if inner <= exhaustive_limit then
          Some (span "core.exhaustive" (fun () -> Core.Exhaustive.run g))
        else None
      in
      let report s = span "service.report" (fun () -> Service.Oneshot.solution_report g s) in
      let pd_report = report pd in
      let ex_report =
        Option.map (fun e -> report e.Core.Exhaustive.solution) ex
      in
      fun () ->
        let pd_total = Core.Solution.total_inner_after g pd in
        let check s = Result.is_ok (Core.Solution.check g s) in
        let error =
          if not (check pd) then Some "PareDown solution fails Solution.check"
          else
            match ex with
            | None -> None
            | Some e ->
              let ex_total =
                Core.Solution.total_inner_after g e.Core.Exhaustive.solution
              in
              Hashtbl.replace gaps key (pd_total, ex_total);
              if e.Core.Exhaustive.outcome <> Core.Exhaustive.Optimal then
                Some "exhaustive search did not finish"
              else if not (check e.Core.Exhaustive.solution) then
                Some "exhaustive solution fails Solution.check"
              else if ex_total > pd_total then
                Some "exhaustive is worse than PareDown"
              else None
        in
        {
          Common.output =
            pd_report ^ Option.value ex_report ~default:"";
          error;
          blocks = (inner, pd_total);
          tag = "";
        }
    in
    { Common.key; run }
  in
  let ops = List.map op designs in
  Common.in_process ~warmup:1
    ~input_digest:
      (Common.hex
         (String.concat "\n"
            (List.map (fun (_, g) -> Netlist.Textio.to_string g) designs)))
    ~extras:(fun () ->
      let pd, ex =
        Hashtbl.fold (fun _ (p, e) (sp, se) -> (sp + p, se + e)) gaps (0, 0)
      in
      [ ("core.optimality_gap", float (pd - ex) /. float (max 1 ex)) ])
    (fun _ -> ops)

(* Figure 5 walkthrough: PareDown on Podium Timer 3, step by step.

   Prints the decision journal of the decomposition method on the
   paper's worked example and checks it against the published figure:
   border ranks (2:+1, 8:+1, 9:0), removal order 9, 8, 7, 6, partitions
   {2,3,4,5} and {6,8,9}, and block 7 left pre-defined.

   Run with: dune exec examples/podium_timer.exe *)

module Graph = Netlist.Graph

let design = Designs.Library.podium_timer_3
let network = design.Designs.Design.network

let () =
  Format.printf "%s — %s@.@." design.Designs.Design.name
    design.Designs.Design.description;
  print_string (Netlist.Textio.to_string ~name:design.Designs.Design.name
                  network);
  print_newline ()

let result, events =
  Obs.Journal.record (fun () -> Core.Paredown.run network)

let () =
  print_endline "PareDown decisions (compare with Figure 5 of the paper):";
  List.iter (fun e -> Format.printf "  %a@." Obs.Journal.pp_event e) events

let () =
  let sol = result.Core.Paredown.solution in
  let total = Core.Solution.total_inner_after network sol in
  let prog = Core.Solution.programmable_count sol in
  Format.printf "@.PareDown: %d inner blocks -> %d (%d programmable)@."
    (Graph.inner_count network) total prog;
  assert (total = 3 && prog = 2)

let () =
  print_endline "\nExhaustive search on the same design:";
  let exh = Core.Exhaustive.run network in
  let sol = exh.Core.Exhaustive.solution in
  List.iter
    (fun p -> Format.printf "  %a@." Core.Partition.pp p)
    sol.Core.Solution.partitions;
  Format.printf "optimal: total %d, programmable %d (PareDown overhead: 0 \
                 blocks — it covers one block fewer with one fewer \
                 programmable block)@."
    (Core.Solution.total_inner_after network sol)
    (Core.Solution.programmable_count sol)

(* The journal assertions that pin this walkthrough to the paper's
   figure. *)
let () =
  let pick f = List.filter_map f events in
  let ranks = function Obs.Journal.Ranked { ranks } -> Some ranks | _ -> None in
  assert (List.hd (pick ranks) = [ (2, 1); (8, 1); (9, 0) ]);
  let removed = function
    | Obs.Journal.Removed { node; _ } -> Some node
    | _ -> None
  in
  assert (pick removed = [ 9; 8; 7; 6; 7 ]);
  let accepted = function
    | Obs.Journal.Accepted { members; _ } -> Some members
    | _ -> None
  in
  assert (pick accepted = [ [ 2; 3; 4; 5 ]; [ 6; 8; 9 ] ]);
  let rejected = function
    | Obs.Journal.Rejected { node; reason } -> Some (node, reason)
    | _ -> None
  in
  assert (pick rejected = [ (7, "left_single") ]);
  print_endline "\njournal matches Figure 5 exactly"

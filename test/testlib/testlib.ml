(* Shared helpers for the test suites. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

(* Alcotest testables *)

let value : Behavior.Ast.value Alcotest.testable =
  Alcotest.testable Behavior.Ast.pp_value Behavior.Ast.equal_value

let id_set : Node_id.Set.t Alcotest.testable =
  Alcotest.testable Node_id.pp_set Node_id.Set.equal

let shape : Core.Shape.t Alcotest.testable =
  Alcotest.testable Core.Shape.pp Core.Shape.equal

(* Builders *)

let set = Node_id.set_of_list

(* A linear chain: sensor -> d1 -> d2 -> ... -> led; returns the graph
   and the inner ids in order. *)
let chain descriptors =
  let g, sensor = Graph.add Graph.empty Eblock.Catalog.button in
  let g, inner_rev =
    List.fold_left
      (fun (g, acc) d ->
        let g, id = Graph.add g d in
        let src = match acc with [] -> sensor | prev :: _ -> prev in
        (Graph.connect g ~src:(src, 0) ~dst:(id, 0), id :: acc))
      (g, []) descriptors
  in
  let inner = List.rev inner_rev in
  let g, led = Graph.add g Eblock.Catalog.led in
  let last = match inner_rev with [] -> sensor | last :: _ -> last in
  let g = Graph.connect g ~src:(last, 0) ~dst:(led, 0) in
  (g, sensor, inner, led)

let podium = Designs.Library.podium_timer_3.Designs.Design.network

(* QCheck generators *)

let network_gen ?(max_inner = 25) () =
  QCheck.Gen.(
    pair (int_range 1 max_inner) (int_range 0 1_000_000)
    |> map (fun (inner, seed) ->
           (inner, seed,
            Randgen.Generator.generate ~rng:(Prng.create seed) ~inner ())))

let network_arbitrary ?max_inner () =
  QCheck.make
    ~print:(fun (inner, seed, _) -> Printf.sprintf "inner=%d seed=%d" inner seed)
    (network_gen ?max_inner ())

let check_ok what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let qtests cases = List.map QCheck_alcotest.to_alcotest cases

(* [contains haystack needle] — substring search, for golden-ish checks
   on rendered text. *)
let contains haystack needle =
  let h = String.length haystack and n = String.length needle in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

(* Loader robustness: byte-level mutants of a valid document — one to
   four edits, each a truncation, a flipped byte, or an injected JSON
   punctuation character or digit. *)
let mutant_gen doc =
  let open QCheck.Gen in
  let injected = "{}[]\",:0123456789" in
  let edit s =
    let n = String.length s in
    if n = 0 then oneofl [ ""; "{"; "0" ]
    else
      int_bound (n - 1) >>= fun i ->
      frequency
        [
          (1, return (String.sub s 0 i));
          ( 3,
            char >|= fun c ->
            String.mapi (fun j d -> if j = i then c else d) s );
          ( 3,
            int_bound (String.length injected - 1) >|= fun k ->
            String.sub s 0 i ^ String.make 1 injected.[k]
            ^ String.sub s i (n - i) );
        ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  int_range 1 4 >>= fun k -> edits k doc

(* A fixed-seed property: every mutant of [doc] makes [load] return Ok
   or Error; an exception fails the test with the mutant. *)
let loader_never_raises ~count ~seed ~name doc load =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
    (QCheck.Test.make ~count ~name
       (QCheck.make ~print:(Printf.sprintf "%S") (mutant_gen doc))
       (fun s -> match load s with Ok _ | Error _ -> true))

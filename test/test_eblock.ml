(* Unit tests for the block model: kinds, descriptor validation, the
   catalogue's arities and behaviours, and name round-tripping. *)

module C = Eblock.Catalog
module D = Eblock.Descriptor

let check = Alcotest.check
let value = Testlib.value

(* --- Kinds ----------------------------------------------------------- *)

let test_kind_classes () =
  check Alcotest.bool "compute inner" true (Eblock.Kind.is_inner Compute);
  check Alcotest.bool "comm inner" true (Eblock.Kind.is_inner Comm);
  check Alcotest.bool "programmable inner" true
    (Eblock.Kind.is_inner Programmable);
  check Alcotest.bool "sensor not inner" false (Eblock.Kind.is_inner Sensor);
  check Alcotest.bool "output not inner" false (Eblock.Kind.is_inner Output);
  check Alcotest.bool "only compute partitionable" true
    (List.for_all
       (fun k ->
         Eblock.Kind.partitionable k = Eblock.Kind.equal k Eblock.Kind.Compute)
       [ Sensor; Output; Compute; Comm; Programmable ])

(* --- Descriptor validation ------------------------------------------- *)

let invalid name f =
  match f () with
  | exception D.Invalid_descriptor _ -> ()
  | _ -> Alcotest.failf "%s did not raise" name

let test_descriptor_validation () =
  invalid "negative arity" (fun () ->
      D.make ~name:"x" ~kind:Compute ~n_inputs:(-1) ~n_outputs:1 ~cost:1.0 ());
  invalid "behaviour reads beyond inputs" (fun () ->
      D.make ~name:"x" ~kind:Compute ~n_inputs:1 ~n_outputs:1
        ~behavior:
          Behavior.Ast.{ state = []; body = [ Output (0, input 1) ] }
        ~cost:1.0 ());
  invalid "behaviour writes beyond outputs" (fun () ->
      D.make ~name:"x" ~kind:Compute ~n_inputs:1 ~n_outputs:1
        ~behavior:
          Behavior.Ast.{ state = []; body = [ Output (1, input 0) ] }
        ~cost:1.0 ());
  invalid "free variable" (fun () ->
      D.make ~name:"x" ~kind:Compute ~n_inputs:1 ~n_outputs:1
        ~behavior:Behavior.Ast.{ state = []; body = [ Output (0, var "u") ] }
        ~cost:1.0 ());
  invalid "output_init length" (fun () ->
      D.make ~name:"x" ~kind:Compute ~n_inputs:1 ~n_outputs:2
        ~output_init:[| Behavior.Ast.Bool false |]
        ~cost:1.0 ());
  invalid "negative cost" (fun () ->
      D.make ~name:"x" ~kind:Compute ~n_inputs:1 ~n_outputs:1 ~cost:(-1.) ())

(* --- Catalogue arities and classes ----------------------------------- *)

let test_catalogue_shape () =
  let expect d kind n_in n_out =
    check Alcotest.bool (d.D.name ^ " kind") true
      (Eblock.Kind.equal d.D.kind kind);
    check Alcotest.int (d.D.name ^ " inputs") n_in d.D.n_inputs;
    check Alcotest.int (d.D.name ^ " outputs") n_out d.D.n_outputs
  in
  expect C.button Sensor 0 1;
  expect C.light_sensor Sensor 0 1;
  expect C.led Output 1 0;
  expect C.buzzer Output 1 0;
  expect C.wireless_tx Comm 1 1;
  expect C.x10_link Comm 1 1;
  expect C.not_gate Compute 1 1;
  expect C.and2 Compute 2 1;
  expect C.and3 Compute 3 1;
  expect C.or3 Compute 3 1;
  expect C.splitter2 Compute 1 2;
  expect (C.truth_table2 ~table:6) Compute 2 1;
  expect (C.truth_table3 ~table:128) Compute 3 1;
  expect C.toggle Compute 1 1;
  expect C.trip_reset Compute 2 1;
  expect (C.pulse_gen ~width:3) Compute 1 1;
  expect (C.delay ~ticks:3) Compute 1 1;
  expect (C.prolong ~ticks:3) Compute 1 1;
  expect (C.blinker ~period:3) Compute 1 1;
  expect
    (C.programmable ~n_inputs:2 ~n_outputs:2 Behavior.Ast.empty)
    Programmable 2 2

let test_catalogue_parameter_validation () =
  let rejects name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted an invalid parameter" name
  in
  rejects "tt2 16" (fun () -> C.truth_table2 ~table:16);
  rejects "tt2 -1" (fun () -> C.truth_table2 ~table:(-1));
  rejects "tt3 256" (fun () -> C.truth_table3 ~table:256);
  rejects "pulse 0" (fun () -> C.pulse_gen ~width:0);
  rejects "delay 0" (fun () -> C.delay ~ticks:0);
  rejects "prolong -3" (fun () -> C.prolong ~ticks:(-3));
  rejects "blinker 0" (fun () -> C.blinker ~period:0)

(* --- Combinational behaviours, exhaustively over inputs -------------- *)

let activate_once d inputs =
  let env = Eval_oracle.init d.D.behavior in
  let act = { Eval_oracle.inputs = Array.of_list inputs; fired = None } in
  Eval_oracle.activate d.D.behavior ~n_outputs:d.D.n_outputs env act

let combinational_output d inputs =
  match (activate_once d (List.map (fun b -> Behavior.Ast.Bool b) inputs))
          .Eval_oracle.outputs.(0)
  with
  | Some v -> v
  | None -> Alcotest.failf "%s drove no output" d.D.name

let test_gates () =
  let cases =
    [
      (C.not_gate, fun i -> not (List.nth i 0));
      (C.and2, fun i -> List.nth i 0 && List.nth i 1);
      (C.or2, fun i -> List.nth i 0 || List.nth i 1);
      (C.xor2, fun i -> List.nth i 0 <> List.nth i 1);
      (C.nand2, fun i -> not (List.nth i 0 && List.nth i 1));
      (C.nor2, fun i -> not (List.nth i 0 || List.nth i 1));
      (C.and3, fun i -> List.for_all Fun.id i);
      (C.or3, fun i -> List.exists Fun.id i);
    ]
  in
  let rec inputs_of n =
    if n = 0 then [ [] ]
    else
      List.concat_map
        (fun rest -> [ false :: rest; true :: rest ])
        (inputs_of (n - 1))
  in
  List.iter
    (fun (d, expected) ->
      List.iter
        (fun i ->
          check value
            (Printf.sprintf "%s%s" d.D.name
               (String.concat "" (List.map string_of_bool i)))
            (Bool (expected i))
            (combinational_output d i))
        (inputs_of d.D.n_inputs))
    cases

let test_truth_tables () =
  (* every 4-bit table, every input pair: bit (2a + b) of the table *)
  for table = 0 to 15 do
    let d = C.truth_table2 ~table in
    List.iter
      (fun (a, b) ->
        let idx = (2 * Bool.to_int a) + Bool.to_int b in
        let expected = (table lsr idx) land 1 = 1 in
        check value
          (Printf.sprintf "tt2(%d) %b %b" table a b)
          (Bool expected)
          (combinational_output d [ a; b ]))
      [ (false, false); (false, true); (true, false); (true, true) ]
  done;
  (* spot-check tt3: table 0b10000000 is AND3 *)
  let d = C.truth_table3 ~table:0b10000000 in
  check value "tt3 and-like high" (Bool true)
    (combinational_output d [ true; true; true ]);
  check value "tt3 and-like low" (Bool false)
    (combinational_output d [ true; true; false ])

let test_splitter () =
  let outcome =
    activate_once C.splitter2 [ Behavior.Ast.Bool true ]
  in
  check (Alcotest.option value) "port 0" (Some (Bool true))
    outcome.Eval_oracle.outputs.(0);
  check (Alcotest.option value) "port 1" (Some (Bool true))
    outcome.Eval_oracle.outputs.(1)

(* --- Sequential behaviours over activation sequences ----------------- *)

(* Drive a 1-input block with a value sequence; collect driven outputs. *)
let drive d inputs =
  let env = Eval_oracle.init d.D.behavior in
  List.map
    (fun b ->
      let act =
        { Eval_oracle.inputs = [| Behavior.Ast.Bool b |]; fired = None }
      in
      (Eval_oracle.activate d.D.behavior ~n_outputs:1 env act)
        .Eval_oracle.outputs.(0))
    inputs

let test_toggle () =
  check
    (Alcotest.list (Alcotest.option value))
    "flips on rising edges only"
    [
      Some (Bool true);   (* rise 1 *)
      Some (Bool true);   (* held *)
      Some (Bool true);   (* fall *)
      Some (Bool false);  (* rise 2 *)
      Some (Bool false);  (* fall *)
    ]
    (drive C.toggle [ true; true; false; true; false ])

let test_trip_latch () =
  check
    (Alcotest.list (Alcotest.option value))
    "latches"
    [ Some (Bool false); Some (Bool true); Some (Bool true) ]
    (drive C.trip_latch [ false; true; false ])

let test_trip_reset () =
  let env = Eval_oracle.init C.trip_reset.D.behavior in
  let step signal reset =
    let act =
      {
        Eval_oracle.inputs =
          [| Behavior.Ast.Bool signal; Behavior.Ast.Bool reset |];
        fired = None;
      }
    in
    (Eval_oracle.activate C.trip_reset.D.behavior ~n_outputs:1 env act)
      .Eval_oracle.outputs.(0)
  in
  check (Alcotest.option value) "trips" (Some (Bool true)) (step true false);
  check (Alcotest.option value) "holds" (Some (Bool true)) (step false false);
  check (Alcotest.option value) "resets" (Some (Bool false)) (step false true);
  check (Alcotest.option value) "reset wins" (Some (Bool false))
    (step true true)

let test_pulse_gen_timer () =
  let d = C.pulse_gen ~width:7 in
  let env = Eval_oracle.init d.D.behavior in
  let rising =
    Eval_oracle.activate d.D.behavior ~n_outputs:1 env
      { Eval_oracle.inputs = [| Bool true |]; fired = None }
  in
  check (Alcotest.option value) "pulse starts" (Some (Bool true))
    rising.Eval_oracle.outputs.(0);
  check Alcotest.bool "timer armed for width" true
    (rising.Eval_oracle.timers = [ (0, Eval_oracle.Timer_set 7) ]);
  let expiry =
    Eval_oracle.activate d.D.behavior ~n_outputs:1 env
      { Eval_oracle.inputs = [| Bool true |]; fired = Some 0 }
  in
  check (Alcotest.option value) "pulse ends" (Some (Bool false))
    expiry.Eval_oracle.outputs.(0)

let test_idempotent_reactivation () =
  (* re-activation with unchanged inputs must not change outputs or state:
     the invariant merged programs rely on (DESIGN.md §2) *)
  let blocks =
    [
      C.toggle; C.trip_latch; C.pulse_gen ~width:5; C.delay ~ticks:5;
      C.prolong ~ticks:5; C.blinker ~period:5; C.not_gate;
    ]
  in
  List.iter
    (fun d ->
      let env = Eval_oracle.init d.D.behavior in
      let step () =
        Eval_oracle.activate d.D.behavior ~n_outputs:1 env
          { Eval_oracle.inputs = [| Bool true |]; fired = None }
      in
      let (_ : Eval_oracle.outcome) = step () in
      let snapshot = Eval_oracle.variables env in
      let again = step () in
      check Alcotest.bool (d.D.name ^ " state stable") true
        (Eval_oracle.variables env = snapshot);
      check Alcotest.bool (d.D.name ^ " no timer on reactivation") true
        (again.Eval_oracle.timers = []))
    blocks

(* --- Costs ------------------------------------------------------------ *)

let test_cost_ordering () =
  check Alcotest.bool "predefined < programmable" true
    (Eblock.Cost.predefined < Eblock.Cost.programmable);
  check Alcotest.bool "programmable < 2 predefined" true
    (Eblock.Cost.programmable < 2. *. Eblock.Cost.predefined);
  check (Alcotest.float 0.0) "of_kind compute" Eblock.Cost.predefined
    (Eblock.Cost.of_kind Compute)

(* --- Name registry ---------------------------------------------------- *)

let test_of_name_roundtrip () =
  List.iter
    (fun d ->
      match C.of_name d.D.name with
      | Some found ->
        check Alcotest.bool (d.D.name ^ " round-trips") true (D.equal d found)
      | None -> Alcotest.failf "%s not found by name" d.D.name)
    (C.all_fixed
     @ [
         C.truth_table2 ~table:9; C.truth_table3 ~table:200;
         C.pulse_gen ~width:12; C.delay ~ticks:7; C.prolong ~ticks:4;
         C.blinker ~period:6;
       ])

let test_of_name_rejects () =
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " rejected") true (C.of_name name = None))
    [ "nonsense"; "tt2(16)"; "tt2(-1)"; "delay(0)"; "delay(x)"; "delay(";
      "tt3(999)"; "pulse_gen(-2)"; "" ]

let test_unique_names () =
  let names = List.map (fun d -> d.D.name) C.all_fixed in
  check Alcotest.int "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let () =
  Alcotest.run "eblock"
    [
      ( "kind",
        [ Alcotest.test_case "classes" `Quick test_kind_classes ] );
      ( "descriptor",
        [ Alcotest.test_case "validation" `Quick test_descriptor_validation ] );
      ( "catalogue",
        [
          Alcotest.test_case "arities and kinds" `Quick test_catalogue_shape;
          Alcotest.test_case "parameter validation" `Quick
            test_catalogue_parameter_validation;
          Alcotest.test_case "unique names" `Quick test_unique_names;
        ] );
      ( "combinational",
        [
          Alcotest.test_case "gates (exhaustive)" `Quick test_gates;
          Alcotest.test_case "truth tables (exhaustive)" `Quick
            test_truth_tables;
          Alcotest.test_case "splitter" `Quick test_splitter;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "toggle" `Quick test_toggle;
          Alcotest.test_case "trip latch" `Quick test_trip_latch;
          Alcotest.test_case "trip with reset" `Quick test_trip_reset;
          Alcotest.test_case "pulse generator timers" `Quick
            test_pulse_gen_timer;
          Alcotest.test_case "idempotent re-activation" `Quick
            test_idempotent_reactivation;
        ] );
      ( "cost",
        [ Alcotest.test_case "ordering" `Quick test_cost_ordering ] );
      ( "names",
        [
          Alcotest.test_case "round-trip" `Quick test_of_name_roundtrip;
          Alcotest.test_case "rejects" `Quick test_of_name_rejects;
        ] );
    ]

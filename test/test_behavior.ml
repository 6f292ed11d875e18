(* Unit and property tests for the behaviour language: AST queries,
   evaluation, renaming, and tree merging. *)

open Behavior.Ast

let check = Alcotest.check
let value = Testlib.value

(* --- AST static queries --------------------------------------------- *)

let test_max_input_index () =
  check Alcotest.int "no inputs" (-1) (max_input_index empty);
  let p = { state = []; body = [ Output (0, input 3 &&& input 1) ] } in
  check Alcotest.int "deep input" 3 (max_input_index p)

let test_max_output_index () =
  check Alcotest.int "no outputs" (-1) (max_output_index empty);
  let p =
    { state = []; body = [ Output (2, bool_ true); Output (0, bool_ false) ] }
  in
  check Alcotest.int "two outputs" 2 (max_output_index p)

let test_max_timer_index () =
  check Alcotest.int "no timers" (-1) (max_timer_index empty);
  let p =
    {
      state = [];
      body =
        [
          Set_timer (1, int_ 5);
          If (Timer_fired 3, [ Cancel_timer 0 ], []);
        ];
    }
  in
  check Alcotest.int "nested" 3 (max_timer_index p);
  check Alcotest.bool "uses" true (uses_timer p);
  check Alcotest.bool "empty does not" false (uses_timer empty)

let test_free_variables () =
  let p = { state = []; body = [ Assign ("x", var "y") ] } in
  check (Alcotest.list Alcotest.string) "y free" [ "y" ] (free_variables p);
  let p = { state = [ ("y", Bool false) ]; body = [ Assign ("x", var "y") ] } in
  check (Alcotest.list Alcotest.string) "state bound" [] (free_variables p);
  let p =
    { state = []; body = [ Assign ("x", bool_ true); Output (0, var "x") ] }
  in
  check (Alcotest.list Alcotest.string) "assigned first" [] (free_variables p)

let test_free_variables_branches () =
  (* assigned in only one branch => not surely defined *)
  let p =
    {
      state = [];
      body =
        [
          If (input 0, [ Assign ("x", bool_ true) ], []);
          Output (0, var "x");
        ];
    }
  in
  check (Alcotest.list Alcotest.string) "one branch" [ "x" ] (free_variables p);
  let p =
    {
      state = [];
      body =
        [
          If (input 0,
              [ Assign ("x", bool_ true) ],
              [ Assign ("x", bool_ false) ]);
          Output (0, var "x");
        ];
    }
  in
  check (Alcotest.list Alcotest.string) "both branches" [] (free_variables p)

let test_assigned_variables () =
  let p =
    {
      state = [ ("s", Int 0) ];
      body = [ Assign ("b", bool_ true); If (var "b", [ Assign ("a", int_ 1) ], []) ];
    }
  in
  check (Alcotest.list Alcotest.string) "sorted, includes state"
    [ "a"; "b"; "s" ] (assigned_variables p)

let test_pretty_print () =
  let p = Eblock.Catalog.toggle.Eblock.Descriptor.behavior in
  let text = program_to_string p in
  check Alcotest.bool "mentions state" true
    (Testlib.contains text "state prev = false;");
  check Alcotest.bool "mentions out" true
    (Testlib.contains text "out[0] = q;")

(* --- Evaluation ------------------------------------------------------ *)

let act ?(fired = None) inputs =
  { Eval_oracle.inputs = Array.of_list inputs; fired }

let test_eval_operators () =
  let e env expr =
    Eval_oracle.eval_expr env (act []) expr
  in
  let env = Eval_oracle.init empty in
  check value "and" (Bool false) (e env (bool_ true &&& bool_ false));
  check value "or" (Bool true) (e env (bool_ true ||| bool_ false));
  check value "xor bool" (Bool true)
    (e env (Binop (Xor, bool_ true, bool_ false)));
  check value "xor int" (Int 6) (e env (Binop (Xor, int_ 5, int_ 3)));
  check value "not" (Bool false) (e env (not_ (bool_ true)));
  check value "neg" (Int (-4)) (e env (Unop (Neg, int_ 4)));
  check value "add" (Int 7) (e env (Binop (Add, int_ 3, int_ 4)));
  check value "sub" (Int (-1)) (e env (Binop (Sub, int_ 3, int_ 4)));
  check value "mul" (Int 12) (e env (Binop (Mul, int_ 3, int_ 4)));
  check value "eq" (Bool true) (e env (Binop (Eq, int_ 3, int_ 3)));
  check value "ne" (Bool true) (e env (Binop (Ne, bool_ true, bool_ false)));
  check value "lt" (Bool true) (e env (Binop (Lt, int_ 2, int_ 3)));
  check value "le" (Bool true) (e env (Binop (Le, int_ 3, int_ 3)));
  check value "gt" (Bool false) (e env (Binop (Gt, int_ 2, int_ 3)));
  check value "ge" (Bool true) (e env (Binop (Ge, int_ 3, int_ 3)));
  check value "if_expr" (Int 1)
    (e env (If_expr (bool_ true, int_ 1, int_ 2)))

let test_eval_errors () =
  let env = Eval_oracle.init empty in
  let fails name f =
    match f () with
    | exception Eval_oracle.Runtime_error _ -> ()
    | _ -> Alcotest.failf "%s did not raise" name
  in
  fails "unbound" (fun () ->
      Eval_oracle.eval_expr env (act []) (var "nope"));
  fails "bool+int" (fun () ->
      Eval_oracle.eval_expr env (act []) (Binop (Add, bool_ true, int_ 1)));
  fails "xor mixed" (fun () ->
      Eval_oracle.eval_expr env (act []) (Binop (Xor, bool_ true, int_ 1)));
  fails "not int" (fun () ->
      Eval_oracle.eval_expr env (act []) (not_ (int_ 1)));
  fails "input range" (fun () ->
      Eval_oracle.eval_expr env (act [ Bool true ]) (input 1));
  fails "output range" (fun () ->
      let p = { state = []; body = [ Output (5, bool_ true) ] } in
      Eval_oracle.activate p ~n_outputs:1 (Eval_oracle.init p) (act []));
  fails "non-positive timer" (fun () ->
      let p = { state = []; body = [ Set_timer (0, int_ 0) ] } in
      Eval_oracle.activate p ~n_outputs:1 (Eval_oracle.init p) (act []))

let test_eval_latched_outputs () =
  (* an output not driven during an activation stays None (latched) *)
  let p =
    { state = []; body = [ If (input 0, [ Output (0, bool_ true) ], []) ] }
  in
  let env = Eval_oracle.init p in
  let out1 =
    Eval_oracle.activate p ~n_outputs:1 env (act [ Bool false ])
  in
  check (Alcotest.option value) "undriven" None
    out1.Eval_oracle.outputs.(0);
  let out2 = Eval_oracle.activate p ~n_outputs:1 env (act [ Bool true ]) in
  check (Alcotest.option value) "driven" (Some (Bool true))
    out2.Eval_oracle.outputs.(0)

let test_eval_state_persists () =
  let p =
    {
      state = [ ("count", Int 0) ];
      body =
        [
          Assign ("count", Binop (Add, var "count", int_ 1));
          Output (0, var "count");
        ];
    }
  in
  let env = Eval_oracle.init p in
  let run () =
    (Eval_oracle.activate p ~n_outputs:1 env (act [])).Eval_oracle.outputs.(0)
  in
  check (Alcotest.option value) "first" (Some (Int 1)) (run ());
  check (Alcotest.option value) "second" (Some (Int 2)) (run ());
  check (Alcotest.option value) "peek" (Some (Int 2))
    (Eval_oracle.lookup env "count")

let test_eval_timers () =
  let p =
    {
      state = [];
      body =
        [
          Set_timer (0, int_ 5);
          Set_timer (1, int_ 9);
          Cancel_timer 1;
          If (Timer_fired 2, [ Output (0, bool_ true) ], []);
        ];
    }
  in
  let env = Eval_oracle.init p in
  let outcome = Eval_oracle.activate p ~n_outputs:1 env (act []) in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "timer actions (set wins per index, sorted)"
    [ (0, true); (1, false) ]
    (List.map
       (fun (t, a) ->
         (t, match a with Eval_oracle.Timer_set _ -> true | _ -> false))
       outcome.Eval_oracle.timers);
  (* timer_fired reflects the activation cause *)
  let fired =
    Eval_oracle.activate p ~n_outputs:1 env (act ~fired:(Some 2) [])
  in
  check (Alcotest.option value) "fired branch" (Some (Bool true))
    fired.Eval_oracle.outputs.(0)

(* --- Renaming -------------------------------------------------------- *)

let test_rename_prefix () =
  let p = Eblock.Catalog.toggle.Eblock.Descriptor.behavior in
  let renamed = Behavior.Rename.with_prefix "b7_" p in
  List.iter
    (fun v ->
      check Alcotest.bool (v ^ " prefixed") true
        (String.length v > 3 && String.sub v 0 3 = "b7_"))
    (assigned_variables renamed);
  check (Alcotest.list Alcotest.string) "still closed" []
    (free_variables renamed)

let test_rename_preserves_semantics () =
  let p = Eblock.Catalog.toggle.Eblock.Descriptor.behavior in
  let renamed = Behavior.Rename.with_prefix "x_" p in
  let run p inputs_list =
    let env = Eval_oracle.init p in
    List.map
      (fun i ->
        (Eval_oracle.activate p ~n_outputs:1 env (act [ Bool i ]))
          .Eval_oracle.outputs.(0))
      inputs_list
  in
  let stimuli = [ true; true; false; true; false; false; true ] in
  check
    (Alcotest.list (Alcotest.option value))
    "same outputs" (run p stimuli) (run renamed stimuli)

let test_variables_disjoint () =
  let p = Eblock.Catalog.toggle.Eblock.Descriptor.behavior in
  check Alcotest.bool "same program clashes" false
    (Behavior.Rename.variables_disjoint [ p; p ]);
  check Alcotest.bool "renamed disjoint" true
    (Behavior.Rename.variables_disjoint
       [ Behavior.Rename.with_prefix "a_" p;
         Behavior.Rename.with_prefix "b_" p ])

(* --- Merging --------------------------------------------------------- *)

(* two NOT gates in series: ext input -> not1 -> wire -> not2 -> ext out *)
let serial_nots =
  let not_behavior = Eblock.Catalog.not_gate.Eblock.Descriptor.behavior in
  Behavior.Merge.
    [
      {
        label = "n1_";
        program = not_behavior;
        inputs = [| Ext 0 |];
        output_wires = [| "w1" |];
        output_exts = [| [] |];
        output_init = [| Bool false |];
      };
      {
        label = "n2_";
        program = not_behavior;
        inputs = [| Wire "w1" |];
        output_wires = [| "w2" |];
        output_exts = [| [ 0 ] |];
        output_init = [| Bool false |];
      };
    ]

let test_merge_serial () =
  let merged = Behavior.Merge.merge serial_nots in
  check (Alcotest.list Alcotest.string) "closed" []
    (free_variables merged);
  let env = Eval_oracle.init merged in
  let out b =
    (Eval_oracle.activate merged ~n_outputs:1 env (act [ Bool b ]))
      .Eval_oracle.outputs.(0)
  in
  check (Alcotest.option value) "double negation true" (Some (Bool true))
    (out true);
  check (Alcotest.option value) "double negation false" (Some (Bool false))
    (out false)

let test_merge_timer_remap () =
  let pulse = (Eblock.Catalog.pulse_gen ~width:4).Eblock.Descriptor.behavior in
  let members =
    Behavior.Merge.
      [
        {
          label = "p1_";
          program = pulse;
          inputs = [| Ext 0 |];
          output_wires = [| "w1" |];
          output_exts = [| [ 0 ] |];
          output_init = [| Bool false |];
        };
        {
          label = "p2_";
          program = pulse;
          inputs = [| Wire "w1" |];
          output_wires = [| "w2" |];
          output_exts = [| [ 1 ] |];
          output_init = [| Bool false |];
        };
      ]
  in
  let merged = Behavior.Merge.merge members in
  check Alcotest.int "two distinct timers" 1 (max_timer_index merged);
  check Alcotest.int "p1 base" 0 (Behavior.Merge.timer_base members "p1_");
  check Alcotest.int "p2 base" 1 (Behavior.Merge.timer_base members "p2_")

let merge_fails name members =
  match Behavior.Merge.merge members with
  | exception Behavior.Merge.Merge_error _ -> ()
  | _ -> Alcotest.failf "%s did not raise" name

let test_merge_errors () =
  let nb = Eblock.Catalog.not_gate.Eblock.Descriptor.behavior in
  let member label inputs wire =
    Behavior.Merge.
      {
        label;
        program = nb;
        inputs;
        output_wires = [| wire |];
        output_exts = [| [] |];
        output_init = [| Bool false |];
      }
  in
  merge_fails "duplicate labels"
    [ member "a_" [| Ext 0 |] "w1"; member "a_" [| Ext 0 |] "w2" ];
  merge_fails "duplicate wires"
    [ member "a_" [| Ext 0 |] "w"; member "b_" [| Ext 0 |] "w" ];
  merge_fails "undriven wire" [ member "a_" [| Wire "ghost" |] "w1" ];
  merge_fails "input arity" [ member "a_" [||] "w1" ]

(* --- Properties ------------------------------------------------------ *)

(* random boolean expressions over in[0..1] *)
let expr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof [ map (fun b -> Const (Bool b)) bool;
                  map (fun i -> Input i) (int_range 0 1) ]
        else
          frequency
            [
              (1, map (fun b -> Const (Bool b)) bool);
              (1, map (fun i -> Input i) (int_range 0 1));
              (2, map (fun e -> not_ e) (self (n - 1)));
              (3,
               map2 (fun a b -> a &&& b) (self (n / 2)) (self (n / 2)));
              (3,
               map2 (fun a b -> a ||| b) (self (n / 2)) (self (n / 2)));
              (2,
               map2
                 (fun a b -> Binop (Xor, a, b))
                 (self (n / 2)) (self (n / 2)));
            ]))

let arbitrary_expr =
  QCheck.make ~print:expr_to_string expr_gen

let eval_bool expr a b =
  let env = Eval_oracle.init empty in
  match Eval_oracle.eval_expr env (act [ Bool a; Bool b ]) expr with
  | Bool r -> r
  | Int _ -> Alcotest.fail "expected bool"

let prop_double_negation =
  QCheck.Test.make ~name:"eval: double negation is identity" ~count:200
    arbitrary_expr (fun e ->
      List.for_all
        (fun (a, b) -> eval_bool (not_ (not_ e)) a b = eval_bool e a b)
        [ (false, false); (false, true); (true, false); (true, true) ])

let prop_de_morgan =
  QCheck.Test.make ~name:"eval: De Morgan" ~count:200
    (QCheck.pair arbitrary_expr arbitrary_expr) (fun (e1, e2) ->
      List.for_all
        (fun (a, b) ->
          eval_bool (not_ (e1 &&& e2)) a b
          = eval_bool (not_ e1 ||| not_ e2) a b)
        [ (false, false); (false, true); (true, false); (true, true) ])

let prop_rename_stable =
  QCheck.Test.make ~name:"rename: prefix leaves input-only exprs intact"
    ~count:200 arbitrary_expr (fun e ->
      let p = { state = []; body = [ Output (0, e) ] } in
      let renamed = Behavior.Rename.with_prefix "z_" p in
      List.for_all
        (fun (a, b) ->
          let out p =
            (Eval_oracle.activate p ~n_outputs:1 (Eval_oracle.init p)
               (act [ Bool a; Bool b ]))
              .Eval_oracle.outputs.(0)
          in
          out p = out renamed)
        [ (false, false); (false, true); (true, false); (true, true) ])

(* --- Compile against the reference interpreter ------------------------ *)

(* Random programs over a tiny variable pool.  Expressions are generated
   at a wanted type (booleans in [a]/[b], integers in [n]/[m]), so most
   activations run to completion; about one leaf in twenty is a corner
   where a closure compiler can drift from a tree walker: the other
   type's constant, a never-bound name, or an input port one past either
   end.  Statements add repeated state declarations, body-only
   variables read before their assignment, out-of-range output ports,
   non-positive timer delays, and nested [If]s. *)

module Compile = Behavior.Compile

type ty = Tbool | Tint

let vars_of = function Tbool -> [ "a"; "b" ] | Tint -> [ "n"; "m" ]

let value_gen ty =
  QCheck.Gen.(
    match ty with
    | Tbool -> map (fun b -> Bool b) bool
    | Tint -> map (fun n -> Int n) (int_range (-2) 5))

let ty_gen = QCheck.Gen.oneofl [ Tbool; Tint ]

let rec typed_expr_gen ~n_inputs ty n =
  let open QCheck.Gen in
  let other = match ty with Tbool -> Tint | Tint -> Tbool in
  let corner =
    oneof
      [
        return (Var "unbound");
        map (fun i -> Input i) (oneofl [ -1; n_inputs ]);
        map (fun v -> Const v) (value_gen other);
      ]
  in
  let in_range_input = map (fun i -> Input i) (int_bound (n_inputs - 1)) in
  let leaf =
    frequency
      ([
         (8, map (fun v -> Const v) (value_gen ty));
         (8, map (fun x -> Var x) (oneofl (vars_of ty)));
         (1, corner);
       ]
      @
      match ty with
      | Tbool ->
        [ (8, in_range_input); (2, map (fun t -> Timer_fired t) (int_bound 2)) ]
      | Tint -> [ (1, in_range_input) ])
  in
  let sub ty m = typed_expr_gen ~n_inputs ty m in
  let binop ops ty' =
    map3 (fun op a b -> Binop (op, a, b)) (oneofl ops)
      (sub ty' (n / 2)) (sub ty' (n / 2))
  in
  let if_expr () =
    map3 (fun c a b -> If_expr (c, a, b))
      (sub Tbool (n / 3)) (sub ty (n / 3)) (sub ty (n / 3))
  in
  if n = 0 then leaf
  else
    match ty with
    | Tbool ->
      frequency
        [
          (2, leaf);
          (1, map (fun e -> Unop (Not, e)) (sub Tbool (n - 1)));
          (2, binop [ And; Or; Xor; Eq; Ne ] Tbool);
          (2, binop [ Eq; Ne; Lt; Le; Gt; Ge ] Tint);
          (1, if_expr ());
        ]
    | Tint ->
      frequency
        [
          (2, leaf);
          (1, map (fun e -> Unop (Neg, e)) (sub Tint (n - 1)));
          (3, binop [ Add; Sub; Mul; Xor ] Tint);
          (1, if_expr ());
        ]

let expr_of_gen ~n_inputs ty =
  QCheck.Gen.(sized_size (int_bound 6) (typed_expr_gen ~n_inputs ty))

let rec stmt_gen ~n_inputs ~n_outputs depth =
  let open QCheck.Gen in
  let port =
    frequency [ (8, int_bound (n_outputs - 1)); (1, oneofl [ -1; n_outputs ]) ]
  in
  frequency
    ([
       ( 3,
         ty_gen >>= fun ty ->
         map2 (fun x e -> Assign (x, e)) (oneofl (vars_of ty))
           (expr_of_gen ~n_inputs ty) );
       ( 3,
         ty_gen >>= fun ty ->
         map2 (fun i e -> Output (i, e)) port (expr_of_gen ~n_inputs ty) );
       ( 2,
         map2
           (fun t e -> Set_timer (t, e))
           (int_bound 2)
           (frequency
              [
                (6, map (fun n -> Const (Int n)) (int_range 1 6));
                (1, map (fun n -> Const (Int n)) (int_range (-1) 0));
                (1, expr_of_gen ~n_inputs Tint);
              ]) );
       (1, map (fun t -> Cancel_timer t) (int_bound 2));
       (1, return Nop);
     ]
    @
    if depth = 0 then []
    else
      let block =
        list_size (int_bound 3) (stmt_gen ~n_inputs ~n_outputs (depth - 1))
      in
      [
        ( 2,
          map3 (fun c t e -> If (c, t, e)) (expr_of_gen ~n_inputs Tbool) block
            block );
      ])

(* Each variable is declared with probability 3/4 (otherwise it is
   body-only), at its own type six times in seven; then up to two
   repeated declarations. *)
let state_gen =
  let open QCheck.Gen in
  let decl ty x =
    map
      (fun v -> (x, v))
      (frequency
         [ (5, value_gen ty); (1, value_gen Tbool); (1, value_gen Tint) ])
  in
  let all =
    List.concat_map
      (fun ty -> List.map (fun x -> (ty, x)) (vars_of ty))
      [ Tbool; Tint ]
  in
  flatten_l
    (List.map
       (fun (ty, x) ->
         frequency [ (3, map Option.some (decl ty x)); (1, return None) ])
       all)
  >>= fun declared ->
  list_size (int_bound 2) (oneofl all >>= fun (ty, x) -> decl ty x)
  >|= fun repeats -> List.filter_map Fun.id declared @ repeats

let input_gen =
  QCheck.Gen.(frequency [ (4, value_gen Tbool); (1, value_gen Tint) ])

(* a program, its port counts, and a run of (inputs, fired timer) steps *)
let compile_case_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun n_inputs ->
    int_range 1 3 >>= fun n_outputs ->
    state_gen >>= fun state ->
    list_size (int_range 1 5) (stmt_gen ~n_inputs ~n_outputs 2) >>= fun body ->
    list_size (int_range 1 6)
      (pair (array_repeat n_inputs input_gen) (opt (int_bound 2)))
    >|= fun steps -> (n_outputs, { state; body }, steps))

let compile_case_arbitrary =
  QCheck.make
    ~print:(fun (n_outputs, p, steps) ->
      Printf.sprintf "n_outputs=%d, %d step(s)\n%s" n_outputs
        (List.length steps) (program_to_string p))
    compile_case_gen

(* Slot [i] of a compiled store names the [i]-th of these (compile.mli) *)
let slot_names p =
  let declared =
    List.fold_left
      (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ])
      [] p.state
  in
  declared
  @ List.filter (fun n -> not (List.mem n declared)) (assigned_variables p)

(* A deep copy that shares nothing with [st], built without [copy_state]. *)
let snapshot (st : Compile.state) =
  ( (Array.to_list st.vars, Array.to_list st.defined, st.fired),
    (Array.to_list st.out_set, Array.to_list st.out_val),
    (Array.to_list st.tmr_act, Array.to_list st.tmr_delay),
    (Array.to_list st.in_k, Array.to_list st.in_n) )

(* One compiled activation, as the reference reports it. *)
let compiled_outcome prog (st : Compile.state) ~inputs ~fired =
  match Compile.run prog st ~inputs ~fired with
  | exception Compile.Runtime_error msg -> Error msg
  | () ->
    let outputs =
      Array.mapi (fun port set -> if set then Some st.out_val.(port) else None)
        st.out_set
    in
    let timers =
      List.filter_map
        (fun slot ->
          let raw = Compile.timer_id prog slot in
          match st.tmr_act.(slot) with
          | 1 -> Some (raw, Eval_oracle.Timer_set st.tmr_delay.(slot))
          | 2 -> Some (raw, Eval_oracle.Timer_cancelled)
          | _ -> None)
        (List.init (Compile.n_timers prog) Fun.id)
    in
    Ok (outputs, timers)

let show_outcome = function
  | Error msg -> "error: " ^ msg
  | Ok (outputs, timers) ->
    Printf.sprintf "outputs [%s], %d timer action(s)"
      (String.concat "; "
         (List.map
            (function
              | None -> "-" | Some v -> Format.asprintf "%a" pp_value v)
            (Array.to_list outputs)))
      (List.length timers)

let prop_compile_matches_oracle =
  QCheck.Test.make ~name:"compile: agrees with the reference interpreter"
    ~count:1000 compile_case_arbitrary (fun (n_outputs, p, steps) ->
      let prog = Compile.compile p ~n_outputs in
      let st = Compile.fresh_state prog in
      let env = Eval_oracle.init p in
      let names = slot_names p in
      let check_store () =
        let lookup slot =
          if st.defined.(slot) then Some st.vars.(slot) else None
        in
        let defined = List.filter Fun.id (Array.to_list st.defined) in
        if
          List.length names <> Array.length st.vars
          || List.length defined <> List.length (Eval_oracle.variables env)
          || List.mapi (fun slot name -> (name, lookup slot)) names
             <> List.map (fun name -> (name, Eval_oracle.lookup env name)) names
        then QCheck.Test.fail_report "variable stores differ"
      in
      let slot_of = function
        | None -> -1
        | Some raw ->
          let rec find s =
            if s >= Compile.n_timers prog then -1
            else if Compile.timer_id prog s = raw then s
            else find (s + 1)
          in
          find 0
      in
      check_store ();
      List.iter
        (fun (inputs, fired) ->
          (* stepping a copy leaves the original untouched, and the copy
             then behaves exactly like the original *)
          let before = snapshot st in
          let clone = Compile.copy_state st in
          let on_clone =
            compiled_outcome prog clone ~inputs ~fired:(slot_of fired)
          in
          if snapshot st <> before then
            QCheck.Test.fail_report "stepping a copy changed the original";
          let compiled =
            compiled_outcome prog st ~inputs ~fired:(slot_of fired)
          in
          if on_clone <> compiled || snapshot clone <> snapshot st then
            QCheck.Test.fail_report "a copy and its original diverged";
          let reference =
            match
              Eval_oracle.activate p ~n_outputs env
                { Eval_oracle.inputs = Array.copy inputs; fired }
            with
            | exception Eval_oracle.Runtime_error msg -> Error msg
            | o -> Ok (o.Eval_oracle.outputs, o.Eval_oracle.timers)
          in
          if compiled <> reference then
            QCheck.Test.fail_reportf "compiled %s, reference %s"
              (show_outcome compiled) (show_outcome reference);
          check_store ())
        steps;
      true)

let () =
  Alcotest.run "behavior"
    [
      ( "ast",
        [
          Alcotest.test_case "max_input_index" `Quick test_max_input_index;
          Alcotest.test_case "max_output_index" `Quick test_max_output_index;
          Alcotest.test_case "max_timer_index" `Quick test_max_timer_index;
          Alcotest.test_case "free_variables" `Quick test_free_variables;
          Alcotest.test_case "free_variables branches" `Quick
            test_free_variables_branches;
          Alcotest.test_case "assigned_variables" `Quick
            test_assigned_variables;
          Alcotest.test_case "pretty print" `Quick test_pretty_print;
        ] );
      ( "eval",
        [
          Alcotest.test_case "operators" `Quick test_eval_operators;
          Alcotest.test_case "errors" `Quick test_eval_errors;
          Alcotest.test_case "latched outputs" `Quick
            test_eval_latched_outputs;
          Alcotest.test_case "state persists" `Quick test_eval_state_persists;
          Alcotest.test_case "timers" `Quick test_eval_timers;
        ] );
      ( "rename",
        [
          Alcotest.test_case "prefix" `Quick test_rename_prefix;
          Alcotest.test_case "preserves semantics" `Quick
            test_rename_preserves_semantics;
          Alcotest.test_case "disjointness" `Quick test_variables_disjoint;
        ] );
      ( "merge",
        [
          Alcotest.test_case "serial nots" `Quick test_merge_serial;
          Alcotest.test_case "timer remap" `Quick test_merge_timer_remap;
          Alcotest.test_case "errors" `Quick test_merge_errors;
        ] );
      ( "properties",
        Testlib.qtests [ prop_double_negation; prop_de_morgan;
                         prop_rename_stable; prop_compile_matches_oracle ] );
    ]

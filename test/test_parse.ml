(* Tests for the behaviour-language front end: lexing, precedence,
   statements, error positions, and print/parse round-tripping. *)

open Behavior.Ast

let check = Alcotest.check

let expr = Behavior.Parse.expression
let program = Behavior.Parse.program

(* --- Expressions ------------------------------------------------------- *)

let test_literals () =
  check Alcotest.bool "true" true (expr "true" = Const (Bool true));
  check Alcotest.bool "false" true (expr "false" = Const (Bool false));
  check Alcotest.bool "int" true (expr "42" = Const (Int 42));
  check Alcotest.bool "var" true (expr "prev" = Var "prev");
  check Alcotest.bool "input" true (expr "in[3]" = Input 3);
  check Alcotest.bool "timer" true (expr "timer_fired(2)" = Timer_fired 2)

let test_precedence () =
  check Alcotest.bool "and over or" true
    (expr "a || b && c" = (Var "a" ||| (Var "b" &&& Var "c")));
  check Alcotest.bool "not binds tight" true
    (expr "!a && b" = (not_ (Var "a") &&& Var "b"));
  check Alcotest.bool "mul over add" true
    (expr "1 + 2 * 3"
     = Binop (Add, int_ 1, Binop (Mul, int_ 2, int_ 3)));
  check Alcotest.bool "comparison over and" true
    (expr "a < 2 && b"
     = (Binop (Lt, Var "a", int_ 2) &&& Var "b"));
  check Alcotest.bool "equality over relational? no: relational first" true
    (expr "a == b < c" = Binop (Eq, Var "a", Binop (Lt, Var "b", Var "c")));
  check Alcotest.bool "parens override" true
    (expr "(a || b) && c" = ((Var "a" ||| Var "b") &&& Var "c"));
  check Alcotest.bool "left associative sub" true
    (expr "5 - 2 - 1"
     = Binop (Sub, Binop (Sub, int_ 5, int_ 2), int_ 1));
  check Alcotest.bool "double negation" true
    (expr "!!a" = not_ (not_ (Var "a")));
  check Alcotest.bool "unary minus" true
    (expr "-x" = Unop (Neg, Var "x"))

let test_ternary () =
  check Alcotest.bool "ternary" true
    (expr "a ? 1 : 2" = If_expr (Var "a", int_ 1, int_ 2));
  check Alcotest.bool "nested ternary (right)" true
    (expr "a ? 1 : b ? 2 : 3"
     = If_expr (Var "a", int_ 1, If_expr (Var "b", int_ 2, int_ 3)));
  check Alcotest.bool "condition sees or" true
    (expr "a || b ? 1 : 2"
     = If_expr (Var "a" ||| Var "b", int_ 1, int_ 2))

(* --- Statements and programs -------------------------------------------- *)

let test_statements () =
  let p =
    program
      "state q = false;\n\
       state n = 3;\n\
       q = !q;\n\
       out[1] = q && in[0];\n\
       set_timer(0, n * 2);\n\
       cancel_timer(1);\n\
       ;"
  in
  check Alcotest.bool "state decls" true
    (p.state = [ ("q", Bool false); ("n", Int 3) ]);
  check Alcotest.bool "body" true
    (p.body
     = [
         Assign ("q", not_ (Var "q"));
         Output (1, Var "q" &&& Input 0);
         Set_timer (0, Binop (Mul, Var "n", int_ 2));
         Cancel_timer 1;
         Nop;
       ])

let test_if_else () =
  let p = program "if (in[0]) { x = 1; } else { x = 2; x = 3; }" in
  check Alcotest.bool "if/else" true
    (p.body
     = [
         If (Input 0,
             [ Assign ("x", int_ 1) ],
             [ Assign ("x", int_ 2); Assign ("x", int_ 3) ]);
       ]);
  let p = program "if (a) { if (b) { y = 1; } }" in
  check Alcotest.bool "nested if, no else" true
    (p.body = [ If (Var "a", [ If (Var "b", [ Assign ("y", int_ 1) ], []) ], []) ])

let test_comments_and_whitespace () =
  let p =
    program
      "// leading comment\nstate q = false; // trailing\n\n   q   =   true ;"
  in
  check Alcotest.bool "parsed through comments" true
    (p.body = [ Assign ("q", bool_ true) ])

let test_negative_state_init () =
  let p = program "state n = -5;" in
  check Alcotest.bool "negative init" true (p.state = [ ("n", Int (-5)) ])

(* --- Errors ---------------------------------------------------------------- *)

let syntax_error_at source expected_line =
  match Behavior.Parse.program source with
  | exception Behavior.Parse.Syntax_error { line; _ } ->
    check Alcotest.int "error line" expected_line line
  | _ -> Alcotest.failf "accepted %S" source

let test_errors () =
  syntax_error_at "x = ;" 1;
  syntax_error_at "state q = false;\nx = @;" 2;
  syntax_error_at "if (a) x = 1;" 1;          (* braces required *)
  syntax_error_at "out[0] = 1" 1;             (* missing semicolon *)
  syntax_error_at "set_timer(0);" 1;          (* needs two arguments *)
  syntax_error_at "state q = x;" 1;           (* initialiser must be literal *)
  syntax_error_at "x = 1; state q = false;" 1;(* state after body *)
  syntax_error_at "in[q]" 1;
  (match Behavior.Parse.expression "a &&" with
   | exception Behavior.Parse.Syntax_error { message; _ } ->
     check Alcotest.bool "helpful message" true
       (Testlib.contains message "expected an expression")
   | _ -> Alcotest.fail "accepted dangling operator")

let test_error_column () =
  match Behavior.Parse.program "x = 1 +;" with
  | exception Behavior.Parse.Syntax_error { line = 1; column; _ } ->
    check Alcotest.int "column of ';'" 8 column
  | _ -> Alcotest.fail "accepted"

(* An integer literal beyond max_int is a syntax error at the literal,
   not an escaping [Failure "int_of_string"]. *)
let test_int_literal_range () =
  let out_of_range what parse expected_line expected_column =
    match parse () with
    | exception Behavior.Parse.Syntax_error { line; column; message } ->
      check Alcotest.int (what ^ ": line") expected_line line;
      check Alcotest.int (what ^ ": column") expected_column column;
      check Alcotest.bool (what ^ ": message") true
        (Testlib.contains message "out of range")
    | _ -> Alcotest.failf "%s: accepted" what
  in
  out_of_range "sum"
    (fun () -> expr "99999999999999999999 + 1")
    1 1;
  out_of_range "input index"
    (fun () ->
      program "state q = false;\nout[0] = in[99999999999999999999];")
    2 13;
  out_of_range "state initialiser"
    (fun () -> program "state n = -4611686018427387904;")
    1 12;
  check Alcotest.bool "max_int itself parses" true
    (expr (string_of_int max_int) = Const (Int max_int))

(* The same error through a netlist's embedded behaviour: Textio reports
   its structured parse error on the body's line. *)
let test_int_literal_range_in_netlist () =
  match
    Netlist.Textio.of_string
      "defblock big compute 1 1 {\n\
      \  out[0] = in[0] || 99999999999999999999 == 1;\n\
       }\n\
       node 1 button\n\
       node 2 big\n"
  with
  | exception Netlist.Textio.Parse_error { line; message } ->
    check Alcotest.int "line of the literal" 2 line;
    check Alcotest.bool "names the defblock" true
      (Testlib.contains message "big");
    check Alcotest.bool "says out of range" true
      (Testlib.contains message "out of range")
  | _ -> Alcotest.fail "netlist accepted"

(* --- Round-tripping ----------------------------------------------------------- *)

let test_catalogue_roundtrip () =
  List.iter
    (fun d ->
      let open Eblock.Descriptor in
      let printed = Behavior.Ast.program_to_string d.behavior in
      check Alcotest.bool (d.name ^ " round-trips") true
        (Behavior.Parse.program printed = d.behavior))
    (Eblock.Catalog.all_fixed
     @ [
         Eblock.Catalog.truth_table2 ~table:11;
         Eblock.Catalog.truth_table3 ~table:99;
         Eblock.Catalog.pulse_gen ~width:4;
         Eblock.Catalog.delay ~ticks:9;
         Eblock.Catalog.prolong ~ticks:2;
         Eblock.Catalog.blinker ~period:7;
       ])

let test_merged_program_roundtrip () =
  (* the big merged trees of synthesis also round-trip *)
  List.iter
    (fun members ->
      let plan =
        Codegen.Plan.build (Netlist.Dense.of_graph Testlib.podium) members
      in
      let printed =
        Behavior.Ast.program_to_string plan.Codegen.Plan.program
      in
      check Alcotest.bool "merged round-trips" true
        (Behavior.Parse.program printed = plan.Codegen.Plan.program))
    [ Testlib.set [ 2; 3; 4; 5 ]; Testlib.set [ 6; 8; 9 ] ]

(* Random syntactically-valid programs (types don't matter for the
   round-trip; negative integer literals are excluded because "-4" parses
   as unary negation of 4, which is the same value but a different
   tree). *)
let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun b -> Const (Bool b)) bool;
              map (fun v -> Const (Int v)) (int_range 0 999);
              map (fun i -> Input i) (int_range 0 3);
              map (fun t -> Timer_fired t) (int_range 0 2);
              oneofl [ Var "a"; Var "prev"; Var "count" ];
            ]
        in
        if n <= 0 then leaf
        else
          frequency
            [
              (2, leaf);
              (1, map (fun e -> not_ e) (self (n - 1)));
              (1, map (fun e -> Unop (Neg, e)) (self (n - 1)));
              (4,
               map2
                 (fun op (a, b) -> Binop (op, a, b))
                 (oneofl
                    [ And; Or; Xor; Add; Sub; Mul; Eq; Ne; Lt; Le; Gt; Ge ])
                 (pair (self (n / 2)) (self (n / 2))));
              (1,
               map2
                 (fun c (a, b) -> If_expr (c, a, b))
                 (self (n / 3))
                 (pair (self (n / 3)) (self (n / 3))));
            ]))

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let simple =
          oneof
            [
              map (fun e -> Assign ("x", e)) gen_expr;
              map2 (fun i e -> Output (i, e)) (int_range 0 2) gen_expr;
              map2 (fun t e -> Set_timer (t, e)) (int_range 0 2) gen_expr;
              map (fun t -> Cancel_timer t) (int_range 0 2);
              return Nop;
            ]
        in
        if n <= 0 then simple
        else
          frequency
            [
              (4, simple);
              (1,
               map2
                 (fun c (t, e) -> If (c, t, e))
                 gen_expr
                 (pair
                    (list_size (int_range 1 3) (self (n / 3)))
                    (list_size (int_range 0 2) (self (n / 3)))));
            ]))

let gen_program =
  QCheck.Gen.(
    map2
      (fun state body -> { state; body })
      (list_size (int_range 0 3)
         (map2
            (fun name v -> (name, v))
            (oneofl [ "a"; "prev"; "count" ])
            (oneof
               [ map (fun b -> Bool b) bool;
                 map (fun v -> Int v) (int_range (-99) 99) ])))
      (list_size (int_range 1 6) gen_stmt))

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip on random programs"
    ~count:300
    (QCheck.make ~print:program_to_string gen_program)
    (fun p ->
      Behavior.Parse.program (program_to_string p) = p)

let test_catalog_define () =
  let majority =
    Eblock.Catalog.define ~name:"majority3" ~n_inputs:3 ~n_outputs:1
      "out[0] = (in[0] && in[1]) || (in[0] && in[2]) || (in[1] && in[2]);"
  in
  check Alcotest.int "arity" 3 majority.Eblock.Descriptor.n_inputs;
  let env = Eval_oracle.init majority.Eblock.Descriptor.behavior in
  let out a b c =
    (Eval_oracle.activate majority.Eblock.Descriptor.behavior ~n_outputs:1
       env
       { Eval_oracle.inputs = [| Bool a; Bool b; Bool c |]; fired = None })
      .Eval_oracle.outputs.(0)
  in
  check Alcotest.bool "2 of 3" true (out true true false = Some (Bool true));
  check Alcotest.bool "1 of 3" true (out true false false = Some (Bool false));
  (* arity violations are caught at definition time *)
  match
    Eblock.Catalog.define ~name:"bad" ~n_inputs:1 ~n_outputs:1
      "out[0] = in[5];"
  with
  | exception Eblock.Descriptor.Invalid_descriptor _ -> ()
  | _ -> Alcotest.fail "out-of-range input accepted"

let () =
  Alcotest.run "parse"
    [
      ( "expressions",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "ternary" `Quick test_ternary;
        ] );
      ( "statements",
        [
          Alcotest.test_case "forms" `Quick test_statements;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "comments" `Quick test_comments_and_whitespace;
          Alcotest.test_case "negative init" `Quick test_negative_state_init;
        ] );
      ( "errors",
        [
          Alcotest.test_case "positions" `Quick test_errors;
          Alcotest.test_case "column" `Quick test_error_column;
          Alcotest.test_case "integer literal out of range" `Quick
            test_int_literal_range;
          Alcotest.test_case "out-of-range literal in a netlist" `Quick
            test_int_literal_range_in_netlist;
        ] );
      ( "round-trip",
        Testlib.qtests [ prop_print_parse_roundtrip ]
        @ [
          Alcotest.test_case "catalogue" `Quick test_catalogue_roundtrip;
          Alcotest.test_case "merged programs" `Quick
            test_merged_program_roundtrip;
          Alcotest.test_case "Catalog.define" `Quick test_catalog_define;
          ] );
    ]

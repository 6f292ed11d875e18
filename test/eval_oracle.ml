(* The library's former tree-walking behaviour interpreter
   (Behavior.Eval), kept verbatim as the semantic reference for
   Behavior.Compile: every activation walks the AST, and variables live
   in a string-keyed Hashtbl.  It raises the library's own
   Behavior.Compile.Runtime_error, so a differential test compares
   messages, not exception identities.  Compile must agree with it on
   driven outputs, timer actions, the variable store and every error
   message (test_behavior.ml), and Sim_oracle runs whole simulations on
   it (test_kernel.ml). *)

module Ast = Behavior.Ast

type env = (string, Ast.value) Hashtbl.t

type timer_action =
  | Timer_set of int
  | Timer_cancelled

type activation = {
  inputs : Ast.value array;
  fired : int option;
}

type outcome = {
  outputs : Ast.value option array;
  timers : (int * timer_action) list;
}

exception Runtime_error = Behavior.Compile.Runtime_error

let error fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

let init (p : Ast.program) =
  let env = Hashtbl.create 8 in
  List.iter (fun (name, v) -> Hashtbl.replace env name v) p.Ast.state;
  env

let copy env = Hashtbl.copy env

let lookup env name = Hashtbl.find_opt env name

let variables env =
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) env []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let as_bool = function
  | Ast.Bool b -> b
  | Ast.Int _ -> error "expected a boolean value"

let as_int = function
  | Ast.Int n -> n
  | Ast.Bool _ -> error "expected an integer value"

let apply_unop op v =
  match op, v with
  | Ast.Not, Ast.Bool b -> Ast.Bool (not b)
  | Ast.Neg, Ast.Int n -> Ast.Int (-n)
  | Ast.Not, Ast.Int _ -> error "! applied to an integer"
  | Ast.Neg, Ast.Bool _ -> error "unary - applied to a boolean"

let apply_binop op v1 v2 =
  match op with
  | Ast.And -> Ast.Bool (as_bool v1 && as_bool v2)
  | Ast.Or -> Ast.Bool (as_bool v1 || as_bool v2)
  | Ast.Xor ->
    (match v1, v2 with
     | Ast.Bool b1, Ast.Bool b2 -> Ast.Bool (Bool.equal b1 b2 |> not)
     | Ast.Int n1, Ast.Int n2 -> Ast.Int (n1 lxor n2)
     | Ast.Bool _, Ast.Int _ | Ast.Int _, Ast.Bool _ ->
       error "^ applied to mixed types")
  | Ast.Add -> Ast.Int (as_int v1 + as_int v2)
  | Ast.Sub -> Ast.Int (as_int v1 - as_int v2)
  | Ast.Mul -> Ast.Int (as_int v1 * as_int v2)
  | Ast.Eq -> Ast.Bool (Ast.equal_value v1 v2)
  | Ast.Ne -> Ast.Bool (not (Ast.equal_value v1 v2))
  | Ast.Lt -> Ast.Bool (as_int v1 < as_int v2)
  | Ast.Le -> Ast.Bool (as_int v1 <= as_int v2)
  | Ast.Gt -> Ast.Bool (as_int v1 > as_int v2)
  | Ast.Ge -> Ast.Bool (as_int v1 >= as_int v2)

let rec eval_expr env act (e : Ast.expr) =
  match e with
  | Const v -> v
  | Var name ->
    (match Hashtbl.find_opt env name with
     | Some v -> v
     | None -> error "unbound variable %s" name)
  | Input i ->
    if i < 0 || i >= Array.length act.inputs then
      error "input port %d out of range (block has %d inputs)"
        i (Array.length act.inputs)
    else act.inputs.(i)
  | Timer_fired t -> Bool (act.fired = Some t)
  | Unop (op, e1) -> apply_unop op (eval_expr env act e1)
  | Binop (op, e1, e2) ->
    apply_binop op (eval_expr env act e1) (eval_expr env act e2)
  | If_expr (c, t, f) ->
    if as_bool (eval_expr env act c)
    then eval_expr env act t
    else eval_expr env act f

let activate (p : Ast.program) ~n_outputs env act =
  let outputs = Array.make n_outputs None in
  let timers = Hashtbl.create 4 in
  let rec exec_stmt (s : Ast.stmt) =
    match s with
    | Assign (name, e) -> Hashtbl.replace env name (eval_expr env act e)
    | Output (i, e) ->
      if i < 0 || i >= n_outputs then
        error "output port %d out of range (block has %d outputs)"
          i n_outputs
      else outputs.(i) <- Some (eval_expr env act e)
    | If (c, then_, else_) ->
      if as_bool (eval_expr env act c)
      then List.iter exec_stmt then_
      else List.iter exec_stmt else_
    | Set_timer (t, e) ->
      let delay = as_int (eval_expr env act e) in
      if delay <= 0 then error "set_timer with non-positive delay %d" delay
      else Hashtbl.replace timers t (Timer_set delay)
    | Cancel_timer t -> Hashtbl.replace timers t Timer_cancelled
    | Nop -> ()
  in
  List.iter exec_stmt p.Ast.body;
  let actions =
    Hashtbl.fold (fun t action acc -> (t, action) :: acc) timers []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  { outputs; timers = actions }

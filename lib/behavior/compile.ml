(* Closure compiler for behaviour programs.  Semantics are pinned by
   the reference interpreter in test/eval_oracle.ml; every deviation the
   simulator could observe — error messages, flush order of outputs and
   timers, last-write-wins — is a bug (property-tested against it in
   test_behavior.ml, and through whole simulations in test_kernel.ml). *)

exception Runtime_error of string

let error fmt = Format.kasprintf (fun msg -> raise (Runtime_error msg)) fmt

let as_bool = function
  | Ast.Bool b -> b
  | Ast.Int _ -> error "expected a boolean value"

let as_int = function
  | Ast.Int n -> n
  | Ast.Bool _ -> error "expected an integer value"

(* The two boolean values are immutable and compared structurally
   everywhere, so all closures share one allocation of each. *)
let vtrue = Ast.Bool true
let vfalse = Ast.Bool false
let vbool b = if b then vtrue else vfalse

(* Int-encoding of values for the latch arrays: tag 0/1 is Bool
   false/true, tag 2 is Int with the payload in the parallel array.
   Plain int arrays mean the simulator's delivery path stores a value
   with two unboxed writes — no caml_modify write barrier. *)
let value_tag = function
  | Ast.Bool b -> Bool.to_int b
  | Ast.Int _ -> 2

let value_payload = function Ast.Bool _ -> 0 | Ast.Int n -> n

let value_of_code k n = if k = 0 then vfalse else if k = 1 then vtrue else Ast.Int n

type state = {
  vars : Ast.value array;
  defined : bool array;
      (* body-only variables start undefined; reading one then raises,
         as the interpreter's Hashtbl miss does *)
  mutable in_k : int array;  (* input latch, int-encoded (see value_tag) *)
  mutable in_n : int array;  (* Int payloads where [in_k] is 2 *)
  mutable fired : int;  (* timer slot that expired, -1 for none *)
  (* activation scratch: last-write-wins collection, flushed by
     [activate] in canonical order *)
  out_set : bool array;
  out_val : Ast.value array;
  tmr_act : int array;  (* 0 untouched, 1 set, 2 cancelled *)
  tmr_delay : int array;
}

type t = {
  run : state -> unit;
  n_outputs : int;
  n_vars : int;
  var_init : Ast.value array;
  defined0 : bool array;
  timer_ids : int array;  (* raw timer index per slot, ascending *)
}

let n_timers t = Array.length t.timer_ids

let timer_id t slot = t.timer_ids.(slot)

(* ------------------------------------------------------------------ *)
(* Slot assignment *)

module String_map = Map.Make (String)

type ctx = {
  var_slot : int String_map.t;
  state_slots : int;  (* slots [0 .. state_slots) are always defined *)
  timer_slot : (int * int) array;  (* (raw, slot), sorted by raw *)
  c_outputs : int;
}

let timer_slot_of ctx raw =
  (* compile-time resolution: linear scan over the program's few
     distinct timers *)
  let rec find i =
    if i >= Array.length ctx.timer_slot then
      invalid_arg "Compile: unknown timer index"
    else
      let raw', slot = ctx.timer_slot.(i) in
      if raw' = raw then slot else find (i + 1)
  in
  find 0

let build_ctx (p : Ast.program) ~n_outputs =
  (* State variables first, in declaration order (first occurrence keeps
     the slot, later duplicates overwrite the initial value — exactly
     [Hashtbl.replace] in the reference interpreter's [init]);
     body-assigned variables after, in sorted order. *)
  let var_slot, inits =
    List.fold_left
      (fun (slots, inits) (name, v) ->
        match String_map.find_opt name slots with
        | Some slot -> (slots, (slot, v) :: inits)
        | None ->
          let slot = String_map.cardinal slots in
          (String_map.add name slot slots, (slot, v) :: inits))
      (String_map.empty, []) p.Ast.state
  in
  let state_slots = String_map.cardinal var_slot in
  let var_slot =
    List.fold_left
      (fun slots name ->
        if String_map.mem name slots then slots
        else String_map.add name (String_map.cardinal slots) slots)
      var_slot
      (Ast.assigned_variables p)
  in
  let n_vars = String_map.cardinal var_slot in
  let var_init = Array.make n_vars vfalse in
  (* inits is reversed declaration order, so folding right-to-left
     replays declaration order and the last duplicate wins *)
  List.iter (fun (slot, v) -> var_init.(slot) <- v) (List.rev inits);
  let defined0 = Array.init n_vars (fun i -> i < state_slots) in
  let timer_set =
    let rec expr_timers acc (e : Ast.expr) =
      match e with
      | Const _ | Var _ | Input _ -> acc
      | Timer_fired t -> t :: acc
      | Unop (_, e1) -> expr_timers acc e1
      | Binop (_, e1, e2) -> expr_timers (expr_timers acc e1) e2
      | If_expr (c, t, f) ->
        expr_timers (expr_timers (expr_timers acc c) t) f
    in
    let rec stmt_timers acc (s : Ast.stmt) =
      match s with
      | Assign (_, e) | Output (_, e) -> expr_timers acc e
      | Set_timer (t, e) -> expr_timers (t :: acc) e
      | Cancel_timer t -> t :: acc
      | If (c, then_, else_) ->
        let acc = expr_timers acc c in
        let acc = List.fold_left stmt_timers acc then_ in
        List.fold_left stmt_timers acc else_
      | Nop -> acc
    in
    List.fold_left stmt_timers [] p.Ast.body |> List.sort_uniq Int.compare
  in
  let timer_ids = Array.of_list timer_set in
  let timer_slot = Array.mapi (fun slot raw -> (raw, slot)) timer_ids in
  ( { var_slot; state_slots; timer_slot; c_outputs = n_outputs },
    var_init, defined0, timer_ids, n_vars )

(* ------------------------------------------------------------------ *)
(* Expression and statement lowering *)

let rec cexpr ctx (e : Ast.expr) : state -> Ast.value =
  match e with
  | Const v -> fun _ -> v
  | Var name ->
    (match String_map.find_opt name ctx.var_slot with
     | None -> fun _ -> error "unbound variable %s" name
     | Some slot when slot < ctx.state_slots -> fun st -> st.vars.(slot)
     | Some slot ->
       fun st ->
         if st.defined.(slot) then st.vars.(slot)
         else error "unbound variable %s" name)
  | Input i ->
    fun st ->
      let k = st.in_k in
      if i < 0 || i >= Array.length k then
        error "input port %d out of range (block has %d inputs)" i
          (Array.length k)
      else
        (match Array.unsafe_get k i with
         | 0 -> vfalse
         | 1 -> vtrue
         | _ -> Ast.Int st.in_n.(i))
  | Timer_fired raw ->
    let slot = timer_slot_of ctx raw in
    fun st -> vbool (st.fired = slot)
  | Unop (op, e1) ->
    let f1 = cexpr ctx e1 in
    (match op with
     | Not ->
       fun st ->
         (match f1 st with
          | Ast.Bool b -> vbool (not b)
          | Ast.Int _ -> error "! applied to an integer")
     | Neg ->
       fun st ->
         (match f1 st with
          | Ast.Int n -> Ast.Int (-n)
          | Ast.Bool _ -> error "unary - applied to a boolean"))
  | Binop (op, e1, e2) ->
    let f1 = cexpr ctx e1 and f2 = cexpr ctx e2 in
    (* Both operands are evaluated before the operator applies, right
       operand first, exactly as in the reference interpreter's
       [eval_expr]: its [apply_binop op (eval e1) (eval e2)] evaluates
       the arguments right to left, and its [&&]/[||] only short-circuit
       the boolean *check* of an already-evaluated operand.  The order
       shows only in which error a binop whose two operands both fail
       reports. *)
    (match op with
     | And -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (as_bool v1 && as_bool v2)
     | Or -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (as_bool v1 || as_bool v2)
     | Xor ->
       fun st ->
         let v2 = f2 st in
         let v1 = f1 st in
         (match v1, v2 with
          | Ast.Bool b1, Ast.Bool b2 -> vbool (Bool.equal b1 b2 |> not)
          | Ast.Int n1, Ast.Int n2 -> Ast.Int (n1 lxor n2)
          | Ast.Bool _, Ast.Int _ | Ast.Int _, Ast.Bool _ ->
            error "^ applied to mixed types")
     | Add -> fun st -> let v2 = f2 st in let v1 = f1 st in
         Ast.Int (as_int v1 + as_int v2)
     | Sub -> fun st -> let v2 = f2 st in let v1 = f1 st in
         Ast.Int (as_int v1 - as_int v2)
     | Mul -> fun st -> let v2 = f2 st in let v1 = f1 st in
         Ast.Int (as_int v1 * as_int v2)
     | Eq -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (Ast.equal_value v1 v2)
     | Ne -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (not (Ast.equal_value v1 v2))
     | Lt -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (as_int v1 < as_int v2)
     | Le -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (as_int v1 <= as_int v2)
     | Gt -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (as_int v1 > as_int v2)
     | Ge -> fun st -> let v2 = f2 st in let v1 = f1 st in
         vbool (as_int v1 >= as_int v2))
  | If_expr (c, t, f) ->
    let fc = cexpr ctx c and ft = cexpr ctx t and ff = cexpr ctx f in
    fun st -> if as_bool (fc st) then ft st else ff st

let rec cstmt ctx (s : Ast.stmt) : state -> unit =
  match s with
  | Assign (name, e) ->
    let f = cexpr ctx e in
    let slot = String_map.find name ctx.var_slot in
    if slot < ctx.state_slots then fun st -> st.vars.(slot) <- f st
    else
      fun st ->
        st.vars.(slot) <- f st;
        st.defined.(slot) <- true
  | Output (i, e) ->
    if i < 0 || i >= ctx.c_outputs then
      (* range failure precedes evaluation of [e], as in the reference *)
      fun _ ->
        error "output port %d out of range (block has %d outputs)" i
          ctx.c_outputs
    else
      let f = cexpr ctx e in
      fun st ->
        let v = f st in
        st.out_set.(i) <- true;
        st.out_val.(i) <- v
  | If (c, then_, else_) ->
    let fc = cexpr ctx c in
    let ft = cblock ctx then_ and fe = cblock ctx else_ in
    fun st -> if as_bool (fc st) then ft st else fe st
  | Set_timer (raw, e) ->
    let slot = timer_slot_of ctx raw in
    let f = cexpr ctx e in
    fun st ->
      let delay = as_int (f st) in
      if delay <= 0 then error "set_timer with non-positive delay %d" delay
      else begin
        st.tmr_act.(slot) <- 1;
        st.tmr_delay.(slot) <- delay
      end
  | Cancel_timer raw ->
    let slot = timer_slot_of ctx raw in
    fun st -> st.tmr_act.(slot) <- 2
  | Nop -> fun _ -> ()

and cblock ctx stmts : state -> unit =
  match List.map (cstmt ctx) stmts with
  | [] -> fun _ -> ()
  | [ f ] -> f
  | [ f1; f2 ] -> fun st -> f1 st; f2 st
  | fs ->
    let arr = Array.of_list fs in
    let n = Array.length arr in
    fun st ->
      for i = 0 to n - 1 do
        arr.(i) st
      done

(* ------------------------------------------------------------------ *)

let build (p : Ast.program) ~n_outputs =
  let ctx, var_init, defined0, timer_ids, n_vars =
    build_ctx p ~n_outputs
  in
  {
    run = cblock ctx p.Ast.body;
    n_outputs;
    n_vars;
    var_init;
    defined0;
    timer_ids;
  }

(* Catalog descriptors are shared across every random design and engine
   instance, so the same few programs are compiled over and over; the
   memo makes Engine.create pay compilation once per distinct program.
   Bounded (merged programs from codegen rewrites are open-ended) and
   mutex-guarded ([lib/parallel] creates engines from several domains;
   compiled code is immutable, so sharing across domains is safe). *)
let memo : (Ast.program * int, t) Hashtbl.t = Hashtbl.create 64
let memo_mutex = Mutex.create ()
let memo_cap = 512

let compile p ~n_outputs =
  let key = (p, n_outputs) in
  Mutex.lock memo_mutex;
  let cached = Hashtbl.find_opt memo key in
  Mutex.unlock memo_mutex;
  match cached with
  | Some t -> t
  | None ->
    let t = build p ~n_outputs in
    Mutex.lock memo_mutex;
    if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
    Hashtbl.replace memo key t;
    Mutex.unlock memo_mutex;
    t

let fresh_state t =
  let nt = Array.length t.timer_ids in
  {
    vars = Array.copy t.var_init;
    defined = Array.copy t.defined0;
    in_k = [||];
    in_n = [||];
    fired = -1;
    out_set = Array.make t.n_outputs false;
    out_val = Array.make t.n_outputs vfalse;
    tmr_act = Array.make nt 0;
    tmr_delay = Array.make nt 0;
  }

let copy_state st =
  {
    vars = Array.copy st.vars;
    defined = Array.copy st.defined;
    in_k = Array.copy st.in_k;
    in_n = Array.copy st.in_n;
    fired = st.fired;
    out_set = Array.copy st.out_set;
    out_val = Array.copy st.out_val;
    tmr_act = Array.copy st.tmr_act;
    tmr_delay = Array.copy st.tmr_delay;
  }

let reset_state t st =
  (* inline: a block has a handful of variables, often none, and
     [Array.blit] is an out-of-line call *)
  for i = 0 to t.n_vars - 1 do
    Array.unsafe_set st.vars i (Array.unsafe_get t.var_init i);
    Array.unsafe_set st.defined i (Array.unsafe_get t.defined0 i)
  done

let bind_inputs st ~tags ~payloads =
  st.in_k <- tags;
  st.in_n <- payloads

let run_bound t st ~fired =
  st.fired <- fired;
  (* inline fills: the arrays are tiny (ports and timer slots of one
     block) and [Array.fill] is an out-of-line call per activation *)
  let os = st.out_set in
  for i = 0 to t.n_outputs - 1 do Array.unsafe_set os i false done;
  let ta = st.tmr_act in
  for i = 0 to Array.length ta - 1 do Array.unsafe_set ta i 0 done;
  t.run st

let run t st ~inputs ~fired =
  let n = Array.length inputs in
  let tags = Array.make n 0 and payloads = Array.make n 0 in
  for i = 0 to n - 1 do
    tags.(i) <- value_tag inputs.(i);
    payloads.(i) <- value_payload inputs.(i)
  done;
  st.in_k <- tags;
  st.in_n <- payloads;
  run_bound t st ~fired;
  st.in_k <- [||];
  st.in_n <- [||]  (* do not retain the scratch encoding *)

let activate t st ~inputs ~fired ~on_output ~on_timer_set ~on_timer_cancel =
  run t st ~inputs ~fired;
  let n_out = t.n_outputs and n_tmr = Array.length t.timer_ids in
  for port = 0 to n_out - 1 do
    if st.out_set.(port) then on_output port st.out_val.(port)
  done;
  for slot = 0 to n_tmr - 1 do
    match st.tmr_act.(slot) with
    | 1 -> on_timer_set slot st.tmr_delay.(slot)
    | 2 -> on_timer_cancel slot
    | _ -> ()
  done

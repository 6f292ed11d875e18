open Behavior.Ast

let m_programs =
  Obs.Metrics.counter "codegen.c_programs" ~doc:"C firmware programs emitted"
let m_bytes =
  Obs.Metrics.counter "codegen.c_bytes" ~doc:"C source bytes emitted"
let h_program_bytes =
  Obs.Metrics.histogram "codegen.c_bytes_per_program"
    ~doc:"emitted C size per program"

let value = function
  | Bool true -> "1"
  | Bool false -> "0"
  | Int n -> string_of_int n

let unop = function
  | Not -> "!"
  | Neg -> "-"

let binop = function
  | And -> "&&"
  | Or -> "||"
  | Xor -> "^"
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec expr = function
  | Const v -> value v
  | Var name -> name
  | Input i -> Printf.sprintf "EB_IN(%d)" i
  | Timer_fired t -> Printf.sprintf "EB_TIMER_FIRED(%d)" t
  | Unop (op, e) -> Printf.sprintf "%s%s" (unop op) (atom e)
  | Binop (op, e1, e2) ->
    Printf.sprintf "%s %s %s" (atom e1) (binop op) (atom e2)
  | If_expr (c, t, f) ->
    Printf.sprintf "(%s ? %s : %s)" (expr c) (expr t) (expr f)

and atom e =
  match e with
  | Const _ | Var _ | Input _ | Timer_fired _ -> expr e
  | Unop _ | Binop _ | If_expr _ -> Printf.sprintf "(%s)" (expr e)

let rec emit_stmt buf indent s =
  let pad = String.make indent ' ' in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string buf (pad ^ l ^ "\n")) fmt in
  match s with
  | Assign (name, e) -> line "%s = %s;" name (expr e)
  | Output (i, e) -> line "EB_OUT(%d, %s);" i (expr e)
  | If (c, then_, []) ->
    line "if (%s) {" (expr c);
    List.iter (emit_stmt buf (indent + 2)) then_;
    line "}"
  | If (c, then_, else_) ->
    line "if (%s) {" (expr c);
    List.iter (emit_stmt buf (indent + 2)) then_;
    line "} else {";
    List.iter (emit_stmt buf (indent + 2)) else_;
    line "}"
  | Set_timer (t, e) -> line "EB_SET_TIMER(%d, %s);" t (expr e)
  | Cancel_timer t -> line "EB_CANCEL_TIMER(%d);" t
  | Nop -> line ";"

let c_type_of_value = function
  | Bool _ -> "unsigned char"
  | Int _ -> "int"

let program ?(block_name = "programmable_eblock") ~n_inputs ~n_outputs p =
  Obs.Journal.with_span "codegen.emit_c" ~args:[ ("block", block_name) ]
  @@ fun () ->
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "/* %s: generated eBlock firmware step function.\n" block_name;
  out " * %d input pin(s), %d output pin(s), %d timer(s).\n"
    n_inputs n_outputs (Behavior.Ast.max_timer_index p + 1);
  out " * Target: Microchip PIC16F628-class programmable eBlock. */\n\n";
  out "#ifndef EB_IN\n";
  out "/* Board-support fallbacks so the file compiles stand-alone. */\n";
  out "static unsigned char eb_inputs[%d];\n" (max 1 n_inputs);
  out "static unsigned char eb_outputs[%d];\n" (max 1 n_outputs);
  out "#define EB_IN(i) (eb_inputs[(i)])\n";
  out "#define EB_OUT(i, v) (eb_outputs[(i)] = (unsigned char)(v))\n";
  out "#define EB_TIMER_FIRED(t) 0\n";
  out "#define EB_SET_TIMER(t, ticks) ((void)(ticks))\n";
  out "#define EB_CANCEL_TIMER(t) ((void)0)\n";
  out "#endif\n\n";
  List.iter
    (fun (name, v) ->
      out "static %s %s = %s;\n" (c_type_of_value v) name (value v))
    p.state;
  if p.state <> [] then out "\n";
  out "void eblock_step(void) {\n";
  List.iter (emit_stmt buf 2) p.body;
  out "}\n";
  Obs.Metrics.incr m_programs;
  Obs.Metrics.add m_bytes (Buffer.length buf);
  Obs.Histogram.observe_int h_program_bytes (Buffer.length buf);
  Buffer.contents buf

let write_file path ?block_name ~n_inputs ~n_outputs p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (program ?block_name ~n_inputs ~n_outputs p))

exception Syntax_error of { line : int; column : int; message : string }

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)

type token =
  | Ident of string
  | Int_lit of int
  | Bool_lit of bool
  | Kw_state | Kw_if | Kw_else | Kw_in | Kw_out
  | Kw_set_timer | Kw_cancel_timer | Kw_timer_fired
  | L_paren | R_paren | L_brace | R_brace | L_bracket | R_bracket
  | Semicolon | Comma | Assign_op
  | Or_op | And_op | Xor_op | Not_op
  | Eq_op | Ne_op | Lt_op | Le_op | Gt_op | Ge_op
  | Plus | Minus | Star
  | Question | Colon
  | End_of_input

let token_description = function
  | Ident name -> Printf.sprintf "identifier %s" name
  | Int_lit n -> Printf.sprintf "integer %d" n
  | Bool_lit b -> string_of_bool b
  | Kw_state -> "'state'" | Kw_if -> "'if'" | Kw_else -> "'else'"
  | Kw_in -> "'in'" | Kw_out -> "'out'"
  | Kw_set_timer -> "'set_timer'" | Kw_cancel_timer -> "'cancel_timer'"
  | Kw_timer_fired -> "'timer_fired'"
  | L_paren -> "'('" | R_paren -> "')'"
  | L_brace -> "'{'" | R_brace -> "'}'"
  | L_bracket -> "'['" | R_bracket -> "']'"
  | Semicolon -> "';'" | Comma -> "','" | Assign_op -> "'='"
  | Or_op -> "'||'" | And_op -> "'&&'" | Xor_op -> "'^'" | Not_op -> "'!'"
  | Eq_op -> "'=='" | Ne_op -> "'!='"
  | Lt_op -> "'<'" | Le_op -> "'<='" | Gt_op -> "'>'" | Ge_op -> "'>='"
  | Plus -> "'+'" | Minus -> "'-'" | Star -> "'*'"
  | Question -> "'?'" | Colon -> "':'"
  | End_of_input -> "end of input"

type positioned = {
  token : token;
  line : int;
  column : int;
}

let keyword_of = function
  | "state" -> Some Kw_state
  | "if" -> Some Kw_if
  | "else" -> Some Kw_else
  | "in" -> Some Kw_in
  | "out" -> Some Kw_out
  | "set_timer" -> Some Kw_set_timer
  | "cancel_timer" -> Some Kw_cancel_timer
  | "timer_fired" -> Some Kw_timer_fired
  | "true" -> Some (Bool_lit true)
  | "false" -> Some (Bool_lit false)
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize source =
  let n = String.length source in
  let tokens = ref [] in
  let line = ref 1 and column = ref 1 in
  let error fmt =
    Format.kasprintf
      (fun message ->
        raise (Syntax_error { line = !line; column = !column; message }))
      fmt
  in
  let emit token = tokens := { token; line = !line; column = !column } :: !tokens in
  let i = ref 0 in
  let advance k =
    for _ = 1 to k do
      (if !i < n && source.[!i] = '\n' then begin
         incr line;
         column := 1
       end
       else incr column);
      incr i
    done
  in
  let peek k = if !i + k < n then Some source.[!i + k] else None in
  while !i < n do
    let c = source.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then advance 1
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && source.[!i] <> '\n' do advance 1 done
    end
    else if is_digit c then begin
      let start = !i and start_line = !line and start_column = !column in
      while !i < n && is_digit source.[!i] do advance 1 done;
      let text = String.sub source start (!i - start) in
      match int_of_string_opt text with
      | Some v -> emit (Int_lit v)
      | None ->
        raise
          (Syntax_error
             {
               line = start_line;
               column = start_column;
               message =
                 Printf.sprintf "integer literal %s out of range (max %d)"
                   text max_int;
             })
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char source.[!i] do advance 1 done;
      let text = String.sub source start (!i - start) in
      emit (match keyword_of text with Some kw -> kw | None -> Ident text)
    end
    else begin
      let two tok = emit tok; advance 2 in
      let one tok = emit tok; advance 1 in
      match c, peek 1 with
      | '|', Some '|' -> two Or_op
      | '&', Some '&' -> two And_op
      | '=', Some '=' -> two Eq_op
      | '!', Some '=' -> two Ne_op
      | '<', Some '=' -> two Le_op
      | '>', Some '=' -> two Ge_op
      | '(', _ -> one L_paren
      | ')', _ -> one R_paren
      | '{', _ -> one L_brace
      | '}', _ -> one R_brace
      | '[', _ -> one L_bracket
      | ']', _ -> one R_bracket
      | ';', _ -> one Semicolon
      | ',', _ -> one Comma
      | '=', _ -> one Assign_op
      | '^', _ -> one Xor_op
      | '!', _ -> one Not_op
      | '<', _ -> one Lt_op
      | '>', _ -> one Gt_op
      | '+', _ -> one Plus
      | '-', _ -> one Minus
      | '*', _ -> one Star
      | '?', _ -> one Question
      | ':', _ -> one Colon
      | _ -> error "unexpected character %C" c
    end
  done;
  emit End_of_input;
  Array.of_list (List.rev !tokens)

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                          *)

type state = {
  tokens : positioned array;
  mutable pos : int;
}

let current st = st.tokens.(st.pos)

let fail_at (p : positioned) fmt =
  Format.kasprintf
    (fun message ->
      raise (Syntax_error { line = p.line; column = p.column; message }))
    fmt

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let accept st token =
  let p = current st in
  if p.token = token then begin advance st; true end else false

let expect st token =
  let p = current st in
  if p.token = token then advance st
  else
    fail_at p "expected %s but found %s" (token_description token)
      (token_description p.token)

let expect_int st =
  let p = current st in
  match p.token with
  | Int_lit v -> advance st; v
  | other -> fail_at p "expected an integer but found %s" (token_description other)

let expect_ident st =
  let p = current st in
  match p.token with
  | Ident name -> advance st; name
  | other ->
    fail_at p "expected an identifier but found %s" (token_description other)

let bracketed_index st =
  expect st L_bracket;
  let index = expect_int st in
  expect st R_bracket;
  index

(* precedence climbing: ternary > or > and > equality > relational > xor
   > additive > multiplicative > unary > primary *)
let rec parse_expr st : Ast.expr = parse_ternary st

and parse_ternary st =
  let condition = parse_or st in
  if accept st Question then begin
    let then_ = parse_expr st in
    expect st Colon;
    let else_ = parse_expr st in
    Ast.If_expr (condition, then_, else_)
  end
  else condition

and parse_or st =
  let rec loop acc =
    if accept st Or_op then loop (Ast.Binop (Ast.Or, acc, parse_and st))
    else acc
  in
  loop (parse_and st)

and parse_and st =
  let rec loop acc =
    if accept st And_op then loop (Ast.Binop (Ast.And, acc, parse_equality st))
    else acc
  in
  loop (parse_equality st)

and parse_equality st =
  let rec loop acc =
    if accept st Eq_op then loop (Ast.Binop (Ast.Eq, acc, parse_relational st))
    else if accept st Ne_op then
      loop (Ast.Binop (Ast.Ne, acc, parse_relational st))
    else acc
  in
  loop (parse_relational st)

and parse_relational st =
  let rec loop acc =
    if accept st Le_op then loop (Ast.Binop (Ast.Le, acc, parse_xor st))
    else if accept st Ge_op then loop (Ast.Binop (Ast.Ge, acc, parse_xor st))
    else if accept st Lt_op then loop (Ast.Binop (Ast.Lt, acc, parse_xor st))
    else if accept st Gt_op then loop (Ast.Binop (Ast.Gt, acc, parse_xor st))
    else acc
  in
  loop (parse_xor st)

and parse_xor st =
  let rec loop acc =
    if accept st Xor_op then loop (Ast.Binop (Ast.Xor, acc, parse_additive st))
    else acc
  in
  loop (parse_additive st)

and parse_additive st =
  let rec loop acc =
    if accept st Plus then loop (Ast.Binop (Ast.Add, acc, parse_multiplicative st))
    else if accept st Minus then
      loop (Ast.Binop (Ast.Sub, acc, parse_multiplicative st))
    else acc
  in
  loop (parse_multiplicative st)

and parse_multiplicative st =
  let rec loop acc =
    if accept st Star then loop (Ast.Binop (Ast.Mul, acc, parse_unary st))
    else acc
  in
  loop (parse_unary st)

and parse_unary st =
  if accept st Not_op then Ast.Unop (Ast.Not, parse_unary st)
  else if accept st Minus then Ast.Unop (Ast.Neg, parse_unary st)
  else parse_primary st

and parse_primary st =
  let p = current st in
  match p.token with
  | Int_lit v -> advance st; Ast.Const (Ast.Int v)
  | Bool_lit b -> advance st; Ast.Const (Ast.Bool b)
  | Ident name -> advance st; Ast.Var name
  | Kw_in ->
    advance st;
    Ast.Input (bracketed_index st)
  | Kw_timer_fired ->
    advance st;
    expect st L_paren;
    let t = expect_int st in
    expect st R_paren;
    Ast.Timer_fired t
  | L_paren ->
    advance st;
    let e = parse_expr st in
    expect st R_paren;
    e
  | other -> fail_at p "expected an expression but found %s" (token_description other)

let rec parse_stmt st : Ast.stmt =
  let p = current st in
  match p.token with
  | Semicolon -> advance st; Ast.Nop
  | Kw_out ->
    advance st;
    let index = bracketed_index st in
    expect st Assign_op;
    let e = parse_expr st in
    expect st Semicolon;
    Ast.Output (index, e)
  | Kw_set_timer ->
    advance st;
    expect st L_paren;
    let t = expect_int st in
    expect st Comma;
    let e = parse_expr st in
    expect st R_paren;
    expect st Semicolon;
    Ast.Set_timer (t, e)
  | Kw_cancel_timer ->
    advance st;
    expect st L_paren;
    let t = expect_int st in
    expect st R_paren;
    expect st Semicolon;
    Ast.Cancel_timer t
  | Kw_if ->
    advance st;
    expect st L_paren;
    let condition = parse_expr st in
    expect st R_paren;
    let then_ = parse_block st in
    let else_ = if accept st Kw_else then parse_block st else [] in
    Ast.If (condition, then_, else_)
  | Ident name ->
    advance st;
    expect st Assign_op;
    let e = parse_expr st in
    expect st Semicolon;
    Ast.Assign (name, e)
  | other -> fail_at p "expected a statement but found %s" (token_description other)

and parse_block st =
  expect st L_brace;
  let rec loop acc =
    if accept st R_brace then List.rev acc
    else loop (parse_stmt st :: acc)
  in
  loop []

let parse_value st : Ast.value =
  let p = current st in
  match p.token with
  | Bool_lit b -> advance st; Ast.Bool b
  | Int_lit v -> advance st; Ast.Int v
  | Minus ->
    advance st;
    Ast.Int (-expect_int st)
  | other ->
    fail_at p "expected a literal initial value but found %s"
      (token_description other)

let parse_state_decls st =
  let rec loop acc =
    if accept st Kw_state then begin
      let name = expect_ident st in
      expect st Assign_op;
      let v = parse_value st in
      expect st Semicolon;
      loop ((name, v) :: acc)
    end
    else List.rev acc
  in
  loop []

let parse_program st : Ast.program =
  let state = parse_state_decls st in
  let rec loop acc =
    if (current st).token = End_of_input then List.rev acc
    else loop (parse_stmt st :: acc)
  in
  let body = loop [] in
  { Ast.state; body }

let run source parse =
  let st = { tokens = tokenize source; pos = 0 } in
  let result = parse st in
  (match (current st).token with
   | End_of_input -> ()
   | other ->
     fail_at (current st) "trailing input: %s" (token_description other));
  result

let program source = run source parse_program

let expression source = run source parse_expr

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

(* RFC 8259 string escaping, complete: quote, backslash, the short
   escapes, every remaining control character (0x00-0x1f) as \u00XX,
   plus DEL for terminal hygiene. *)
let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 || Char.code c = 0x7f ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A float rendered as a JSON number: integral values print as
   integers (so counters round-trip through Num without a spurious
   ".0"), everything else in the fewest significant digits, of 15, 16
   or 17, that read back as the same float: 0.1 as [0.1], not
   [0.10000000000000001].  Seventeen always read back. *)
let number_to_string v =
  if not (Float.is_finite v) then "0" (* JSON has no inf/nan *)
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else
    let exact s = Float.equal (float_of_string s) v in
    let s15 = Printf.sprintf "%.15g" v in
    if exact s15 then s15
    else
      let s16 = Printf.sprintf "%.16g" v in
      if exact s16 then s16 else Printf.sprintf "%.17g" v

let rec write ~indent ~level buf t =
  let pad n = if indent > 0 then Buffer.add_string buf (String.make (n * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char buf '\n' in
  match t with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num v -> Buffer.add_string buf (number_to_string v)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Arr [] -> Buffer.add_string buf "[]"
  | Arr items ->
    Buffer.add_char buf '[';
    nl ();
    List.iteri
      (fun i item ->
        if i > 0 then begin Buffer.add_char buf ','; nl () end;
        pad (level + 1);
        write ~indent ~level:(level + 1) buf item)
      items;
    nl ();
    pad level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    nl ();
    List.iteri
      (fun i (k, v) ->
        if i > 0 then begin Buffer.add_char buf ','; nl () end;
        pad (level + 1);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\":";
        if indent > 0 then Buffer.add_char buf ' ';
        write ~indent ~level:(level + 1) buf v)
      fields;
    nl ();
    pad level;
    Buffer.add_char buf '}'

let to_string ?(indent = 0) t =
  let buf = Buffer.create 256 in
  write ~indent ~level:0 buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing — recursive descent over the full RFC 8259 grammar. *)

exception Parse_error of int * string

let utf8_add buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xf0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
  end

let default_max_depth = 512

let of_string ?(max_depth = default_max_depth) s =
  let n = String.length s in
  let fail i msg = raise (Parse_error (i, msg)) in
  let rec skip_ws i =
    if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r')
    then skip_ws (i + 1)
    else i
  in
  let hex i =
    match s.[i] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> fail i "hex digit expected"
  in
  let hex4 i =
    if i + 4 > n then fail i "truncated \\u escape";
    (hex i lsl 12) lor (hex (i + 1) lsl 8) lor (hex (i + 2) lsl 4)
    lor hex (i + 3)
  in
  let rec string_body buf i =
    if i >= n then fail i "unterminated string"
    else
      match s.[i] with
      | '"' -> (Buffer.contents buf, i + 1)
      | '\\' ->
        if i + 1 >= n then fail i "dangling escape"
        else begin
          match s.[i + 1] with
          | '"' -> Buffer.add_char buf '"'; string_body buf (i + 2)
          | '\\' -> Buffer.add_char buf '\\'; string_body buf (i + 2)
          | '/' -> Buffer.add_char buf '/'; string_body buf (i + 2)
          | 'b' -> Buffer.add_char buf '\b'; string_body buf (i + 2)
          | 'f' -> Buffer.add_char buf '\012'; string_body buf (i + 2)
          | 'n' -> Buffer.add_char buf '\n'; string_body buf (i + 2)
          | 'r' -> Buffer.add_char buf '\r'; string_body buf (i + 2)
          | 't' -> Buffer.add_char buf '\t'; string_body buf (i + 2)
          | 'u' ->
            let code = hex4 (i + 2) in
            if code >= 0xd800 && code <= 0xdbff
               && i + 11 < n && s.[i + 6] = '\\' && s.[i + 7] = 'u'
            then begin
              let low = hex4 (i + 8) in
              if low >= 0xdc00 && low <= 0xdfff then begin
                utf8_add buf
                  (0x10000 + ((code - 0xd800) lsl 10) + (low - 0xdc00));
                string_body buf (i + 12)
              end
              else fail i "unpaired high surrogate"
            end
            else if code >= 0xd800 && code <= 0xdfff then
              fail i "unpaired surrogate"
            else begin
              utf8_add buf code;
              string_body buf (i + 6)
            end
          | c -> fail i (Printf.sprintf "bad escape %C" c)
        end
      | c when Char.code c < 0x20 -> fail i "raw control character in string"
      | c -> Buffer.add_char buf c; string_body buf (i + 1)
  in
  let string_lit i = string_body (Buffer.create 16) i in
  let number i =
    let j = ref (if s.[i] = '-' then i + 1 else i) in
    let digits start =
      let k = ref start in
      while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
      if !k = start then fail start "digit expected";
      !k
    in
    let int_start = !j in
    j := digits !j;
    (* RFC 8259: the integer part is "0" or starts with 1-9 *)
    if s.[int_start] = '0' && !j > int_start + 1 then
      fail int_start "leading zero";
    if !j < n && s.[!j] = '.' then j := digits (!j + 1);
    if !j < n && (s.[!j] = 'e' || s.[!j] = 'E') then begin
      let k = !j + 1 in
      let k = if k < n && (s.[k] = '+' || s.[k] = '-') then k + 1 else k in
      j := digits k
    end;
    (Num (float_of_string (String.sub s i (!j - i))), !j)
  in
  (* [depth] counts the containers already open around this point; a
     container may only open while it is strictly below [max_depth], so
     both recursion depth and stack use stay bounded on hostile
     deeply-nested input (the parser now fronts a network service). *)
  let rec value depth i =
    let i = skip_ws i in
    if i >= n then fail i "value expected"
    else
      match s.[i] with
      | '{' ->
        if depth >= max_depth then
          fail i (Printf.sprintf "nesting deeper than %d" max_depth)
        else obj (depth + 1) [] (skip_ws (i + 1))
      | '[' ->
        if depth >= max_depth then
          fail i (Printf.sprintf "nesting deeper than %d" max_depth)
        else arr (depth + 1) [] (skip_ws (i + 1))
      | '"' ->
        let str, j = string_lit (i + 1) in
        (Str str, j)
      | 't' -> lit i "true" (Bool true)
      | 'f' -> lit i "false" (Bool false)
      | 'n' -> lit i "null" Null
      | '-' | '0' .. '9' -> number i
      | c -> fail i (Printf.sprintf "unexpected %C" c)
  and lit i word v =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then (v, i + l)
    else fail i ("expected " ^ word)
  and obj depth acc i =
    (* the closing brace is only legal before the first field — after a
       comma a field must follow (no trailing commas in RFC 8259) *)
    if acc = [] && i < n && s.[i] = '}' then (Obj [], i + 1)
    else begin
      let i = skip_ws i in
      if i >= n || s.[i] <> '"' then fail i "object key expected";
      let key, i = string_lit (i + 1) in
      let i = skip_ws i in
      if i >= n || s.[i] <> ':' then fail i "colon expected";
      let v, i = value depth (i + 1) in
      let i = skip_ws i in
      if i < n && s.[i] = ',' then obj depth ((key, v) :: acc) (skip_ws (i + 1))
      else if i < n && s.[i] = '}' then (Obj (List.rev ((key, v) :: acc)), i + 1)
      else fail i "comma or } expected"
    end
  and arr depth acc i =
    if acc = [] && i < n && s.[i] = ']' then (Arr [], i + 1)
    else begin
      let v, i = value depth i in
      let i = skip_ws i in
      if i < n && s.[i] = ',' then arr depth (v :: acc) (skip_ws (i + 1))
      else if i < n && s.[i] = ']' then (Arr (List.rev (v :: acc)), i + 1)
      else fail i "comma or ] expected"
    end
  in
  match value 0 0 with
  | v, i ->
    let i = skip_ws i in
    if i <> n then Error (Printf.sprintf "trailing garbage at byte %d" i)
    else Ok v
  | exception Parse_error (i, msg) ->
    Error (Printf.sprintf "invalid JSON at byte %d: %s" i msg)

(* ------------------------------------------------------------------ *)
(* Accessors and typed readers *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_str = function Str s -> Some s | _ -> None

type 'a reader = t -> ('a, string) result

let ( let* ) = Result.bind

(* What was found, short enough to quote in an error. *)
let got v =
  let s = to_string v in
  if String.length s <= 40 then s else String.sub s 0 37 ^ "..."

let expected what v = Error (Printf.sprintf "%s expected, got %s" what (got v))

(* The largest magnitude up to which a float holds every integer. *)
let max_exact = 1 lsl 53

let int ?(lo = -max_exact) ?(hi = max_exact) = function
  | Num v when Float.is_integer v && v >= float lo && v <= float hi ->
    Ok (Float.to_int v)
  | v -> expected (Printf.sprintf "integer in %d..%d" lo hi) v

let float ?lo ?hi = function
  | Num v
    when Float.is_finite v
         && (match lo with Some lo -> v >= lo | None -> true)
         && (match hi with Some hi -> v <= hi | None -> true) ->
    Ok v
  | v ->
    expected
      (match (lo, hi) with
       | None, None -> "finite number"
       | Some lo, None -> Printf.sprintf "number >= %g" lo
       | None, Some hi -> Printf.sprintf "number <= %g" hi
       | Some lo, Some hi -> Printf.sprintf "number in %g..%g" lo hi)
      v

let string = function Str s -> Ok s | v -> expected "string" v
let bool = function Bool b -> Ok b | v -> expected "bool" v
let any v = Ok v

let nullable read = function
  | Null -> Ok None
  | v -> Result.map Option.some (read v)

(* Errors are prefixed with where they arose; the prefix is only
   formatted on the error path, so a valid document pays nothing. *)
let in_field name = function
  | Ok _ as r -> r
  | Error e -> Error (Printf.sprintf "field %S: %s" name e)

let list read = function
  | Arr items ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | v :: rest -> (
        match read v with
        | Ok x -> go (i + 1) (x :: acc) rest
        | Error e -> Error (Printf.sprintf "item %d: %s" i e))
    in
    go 0 [] items
  | v -> expected "array" v

let obj read = function
  | Obj fields ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | (k, v) :: rest ->
        let* x = in_field k (read v) in
        go ((k, x) :: acc) rest
    in
    go [] fields
  | v -> expected "object" v

let field name read j =
  match member name j with
  | Some v -> in_field name (read v)
  | None -> Error (Printf.sprintf "missing field %S" name)

let field_or name ~default read j =
  match member name j with
  | Some v -> in_field name (read v)
  | None -> Ok default

let field_opt name read j = field_or name ~default:None (nullable read) j

let header ~schema ~version j =
  let* s = field "schema" string j in
  if s <> schema then Error (Printf.sprintf "schema %S, expected %S" s schema)
  else
    let* v = field "version" int j in
    if v <> version then
      Error (Printf.sprintf "version %d unsupported (expected %d)" v version)
    else Ok ()

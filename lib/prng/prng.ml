(* The state lives unboxed in 8 bytes (a [mutable int64] field boxes
   every new state), so a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix state

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 state;
  t

let create seed = of_state (Int64.of_int seed)

let split t = of_state (next t)

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62
     so the bias is negligible for simulation purposes. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let[@inline] bool t = Int64.logand (next t) 1L = 1L

(* [float t 1.0] is [v / 2^53] for the draw's top 53 bits [v], exactly,
   so [float t 1.0 < p] iff [v < p * 2^53] iff [v < ceil (p * 2^53)]. *)
let two53 = 9007199254740992.0

let threshold p = if p > 0. then int_of_float (Float.ceil (p *. two53)) else 0

let chance t k = Int64.to_int (Int64.shift_right_logical (next t) 11) < k

let[@inline] float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. v /. 9007199254740992.0

let pick t = function
  | [] -> invalid_arg "Prng.pick: empty list"
  | items -> List.nth items (int t (List.length items))

let shuffle t items =
  let arr = Array.of_list items in
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

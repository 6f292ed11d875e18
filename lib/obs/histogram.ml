(* Log-bucketed (HDR-style) histogram.  Values are nonnegative floats;
   bucket [i >= 1] covers [2^((i-1)/sub), 2^(i/sub)) with [sub]
   sub-buckets per octave, so the relative quantile error is bounded by
   2^(1/sub) - 1 (~19% at sub = 4).  Bucket 0 collects values < 1,
   which for tick and byte quantities means "zero". *)

let sub_buckets = 4

(* 64 octaves cover every int64 value. *)
let n_buckets = 1 + (64 * sub_buckets)

(* One owner writes a histogram (a telemetry collector on its domain),
   so nothing is locked; readers run after the owner's join.  The sum
   and the extremes sit unboxed in a float array: an observation
   allocates nothing. *)
type t = {
  mutable count : int;
  fs : float array;  (* at [k_sum], [k_min], [k_max] *)
  buckets : int array;
}

let k_sum = 0
let k_min = 1
let k_max = 2

let create () =
  { count = 0; fs = [| 0.; infinity; neg_infinity |];
    buckets = Array.make n_buckets 0 }

let clear t =
  t.count <- 0;
  t.fs.(k_sum) <- 0.;
  t.fs.(k_min) <- infinity;
  t.fs.(k_max) <- neg_infinity;
  Array.fill t.buckets 0 n_buckets 0

let[@inline] index v =
  if v < 1. then 0
  else
    let i = 1 + int_of_float (Float.log2 v *. float_of_int sub_buckets) in
    if i >= n_buckets then n_buckets - 1 else i

(* Geometric midpoint of a bucket: the canonical value reported for any
   observation that landed in it. *)
let representative i =
  if i = 0 then 0.
  else Float.exp2 ((float_of_int i -. 0.5) /. float_of_int sub_buckets)

let[@inline] observe t v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  t.count <- t.count + 1;
  t.fs.(k_sum) <- t.fs.(k_sum) +. v;
  if v < t.fs.(k_min) then t.fs.(k_min) <- v;
  if v > t.fs.(k_max) then t.fs.(k_max) <- v;
  let i = index v in
  t.buckets.(i) <- t.buckets.(i) + 1

let[@inline] observe_int t n = observe t (float_of_int n)

let count t = t.count
let sum t = t.fs.(k_sum)
let mean t = if t.count = 0 then 0. else t.fs.(k_sum) /. float_of_int t.count
let min_value t = if t.count = 0 then 0. else t.fs.(k_min)
let max_value t = if t.count = 0 then 0. else t.fs.(k_max)

(* p in [0, 100].  Walk the buckets to the smallest representative
   whose cumulative count reaches rank ceil(p/100 * count); clamp into
   [min, max] so the tails are exact. *)
let percentile t p =
  if t.count = 0 then 0.
  else if p <= 0. then t.fs.(k_min)
  else if p >= 100. then t.fs.(k_max)
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let rec walk i acc =
      if i >= n_buckets then t.fs.(k_max)
      else
        let acc = acc + t.buckets.(i) in
        if acc >= rank then representative i else walk (i + 1) acc
    in
    let v = walk 0 0 in
    if v < t.fs.(k_min) then t.fs.(k_min)
    else if v > t.fs.(k_max) then t.fs.(k_max)
    else v
  end

type summary = {
  s_count : int;
  s_sum : float;
  s_mean : float;
  s_min : float;
  s_p50 : float;
  s_p90 : float;
  s_p99 : float;
  s_max : float;
}

let summary t =
  {
    s_count = t.count;
    s_sum = t.fs.(k_sum);
    s_mean = mean t;
    s_min = min_value t;
    s_p50 = percentile t 50.;
    s_p90 = percentile t 90.;
    s_p99 = percentile t 99.;
    s_max = max_value t;
  }

let bucket_counts t =
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (i, t.buckets.(i)) :: !acc
  done;
  !acc

let merge a b =
  let m = create () in
  m.count <- a.count + b.count;
  m.fs.(k_sum) <- a.fs.(k_sum) +. b.fs.(k_sum);
  m.fs.(k_min) <- Float.min a.fs.(k_min) b.fs.(k_min);
  m.fs.(k_max) <- Float.max a.fs.(k_max) b.fs.(k_max);
  for i = 0 to n_buckets - 1 do
    m.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
  done;
  m

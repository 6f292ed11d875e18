(* Log-bucketed (HDR-style) histogram.  Values are nonnegative floats;
   bucket [i >= 1] covers [2^((i-1)/sub), 2^(i/sub)) with [sub]
   sub-buckets per octave, so the relative quantile error is bounded by
   2^(1/sub) - 1 (~19% at sub = 4).  Bucket 0 collects values < 1,
   which for nanosecond and byte quantities means "zero". *)

let sub_buckets = 4

(* 64 octaves cover every int64 nanosecond value. *)
let n_buckets = 1 + (64 * sub_buckets)

(* Each histogram carries its own mutex so observations from parallel
   sweep workers ({!Parallel}) merge exactly.  An uncontended
   lock/unlock is tens of nanoseconds — negligible next to the work the
   hot paths record.  The sum and the extremes sit unboxed in a float
   array: an observation allocates nothing. *)
type t = {
  lock : Mutex.t;
  mutable count : int;
  fs : float array;  (* at [k_sum], [k_min], [k_max] *)
  buckets : int array;
}

let k_sum = 0
let k_min = 1
let k_max = 2

let create () =
  { lock = Mutex.create ();
    count = 0; fs = [| 0.; infinity; neg_infinity |];
    buckets = Array.make n_buckets 0 }

let locked t f = Mutex.protect t.lock f

let clear t =
  locked t @@ fun () ->
  t.count <- 0;
  t.fs.(k_sum) <- 0.;
  t.fs.(k_min) <- infinity;
  t.fs.(k_max) <- neg_infinity;
  Array.fill t.buckets 0 n_buckets 0

let copy t =
  locked t @@ fun () ->
  { lock = Mutex.create ();
    count = t.count; fs = Array.copy t.fs;
    buckets = Array.copy t.buckets }

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

(* Locked by hand: the update cannot raise, and [locked]'s closure would
   allocate on every observation. *)
let[@inline] observe t v =
  let v = if Float.is_nan v || v < 0. then 0. else v in
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  t.fs.(k_sum) <- t.fs.(k_sum) +. v;
  if v < t.fs.(k_min) then t.fs.(k_min) <- v;
  if v > t.fs.(k_max) then t.fs.(k_max) <- v;
  let i = index v in
  t.buckets.(i) <- t.buckets.(i) + 1;
  Mutex.unlock t.lock

let[@inline] observe_int t n = observe t (float_of_int n)


let count t = locked t (fun () -> t.count)
let sum t = locked t (fun () -> t.fs.(k_sum))

let mean_unlocked t =
  if t.count = 0 then 0. else t.fs.(k_sum) /. float_of_int t.count
let mean t = locked t (fun () -> mean_unlocked t)

let min_value_unlocked t = if t.count = 0 then 0. else t.fs.(k_min)
let max_value_unlocked t = if t.count = 0 then 0. else t.fs.(k_max)
let min_value t = locked t (fun () -> min_value_unlocked t)
let max_value t = locked t (fun () -> max_value_unlocked t)

(* p in [0, 100].  Walk the buckets to the smallest representative
   whose cumulative count reaches rank ceil(p/100 * count); clamp into
   [min, max] so the tails are exact. *)
let percentile_unlocked t p =
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

let percentile t p = locked t (fun () -> percentile_unlocked t p)

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

(* One lock acquisition for the whole consistent reading. *)
let summary t =
  locked t @@ fun () ->
  {
    s_count = t.count;
    s_sum = t.fs.(k_sum);
    s_mean = mean_unlocked t;
    s_min = min_value_unlocked t;
    s_p50 = percentile_unlocked t 50.;
    s_p90 = percentile_unlocked t 90.;
    s_p99 = percentile_unlocked t 99.;
    s_max = max_value_unlocked t;
  }

(* [diff ~before after]: the observations recorded in [after] but not
   in the earlier copy [before].  Bucket counts and sums subtract
   exactly; min/max are only known to bucket resolution unless [before]
   was empty, in which case they are exact.  Works on consistent copies
   so the subtraction never sees a torn concurrent update. *)
let diff ~before after =
  let before = copy before and after = copy after in
  if before.count = 0 then after
  else begin
    let d = create () in
    d.count <- after.count - before.count;
    d.fs.(k_sum) <- after.fs.(k_sum) -. before.fs.(k_sum);
    for i = 0 to n_buckets - 1 do
      d.buckets.(i) <- after.buckets.(i) - before.buckets.(i)
    done;
    Array.iteri
      (fun i n ->
        if n > 0 then begin
          let r = representative i in
          if r < d.fs.(k_min) then d.fs.(k_min) <- r;
          if r > d.fs.(k_max) then d.fs.(k_max) <- r
        end)
      d.buckets;
    if d.count > 0 && d.fs.(k_min) = infinity then begin
      (* all diff buckets cancelled (can only happen on misuse) *)
      d.fs.(k_min) <- 0.;
      d.fs.(k_max) <- 0.
    end;
    d
  end

let bucket_counts t =
  locked t @@ fun () ->
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (i, t.buckets.(i)) :: !acc
  done;
  !acc

let merge a b =
  let a = copy a and b = copy b in
  let m = create () in
  m.count <- a.count + b.count;
  m.fs.(k_sum) <- a.fs.(k_sum) +. b.fs.(k_sum);
  m.fs.(k_min) <- Float.min a.fs.(k_min) b.fs.(k_min);
  m.fs.(k_max) <- Float.max a.fs.(k_max) b.fs.(k_max);
  for i = 0 to n_buckets - 1 do
    m.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
  done;
  m

(* Tests for the deterministic PRNG. *)

let check = Alcotest.check

let stream seed n =
  let rng = Prng.create seed in
  List.init n (fun _ -> Prng.int rng 1000)

let test_determinism () =
  check (Alcotest.list Alcotest.int) "same seed" (stream 42 50) (stream 42 50);
  check Alcotest.bool "different seeds differ" true
    (stream 42 50 <> stream 43 50)

let test_int_bounds () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of bounds: %d" v
  done;
  (match Prng.int rng 0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bound 0 accepted")

let test_float_bounds () =
  let rng = Prng.create 2 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 1.0 in
    if v < 0.0 || v >= 1.0 then Alcotest.failf "out of bounds: %f" v
  done

let test_bool_mixes () =
  let rng = Prng.create 3 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  check Alcotest.bool "roughly balanced" true (!trues > 400 && !trues < 600)

let test_pick () =
  let rng = Prng.create 4 in
  for _ = 1 to 100 do
    let v = Prng.pick rng [ 1; 2; 3 ] in
    if not (List.mem v [ 1; 2; 3 ]) then Alcotest.fail "picked outside list"
  done;
  (match Prng.pick rng [] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty list accepted")

let test_shuffle_permutation () =
  let rng = Prng.create 5 in
  let original = List.init 20 Fun.id in
  let shuffled = Prng.shuffle rng original in
  check (Alcotest.list Alcotest.int) "same multiset" original
    (List.sort compare shuffled)

let test_split_independence () =
  let rng = Prng.create 6 in
  let child1 = Prng.split rng in
  let child2 = Prng.split rng in
  let s1 = List.init 20 (fun _ -> Prng.int child1 1000) in
  let s2 = List.init 20 (fun _ -> Prng.int child2 1000) in
  check Alcotest.bool "children differ" true (s1 <> s2)

let test_uniformity_rough () =
  let rng = Prng.create 7 in
  let buckets = Array.make 10 0 in
  let draws = 10_000 in
  for _ = 1 to draws do
    let v = Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i count ->
      if count < 800 || count > 1200 then
        Alcotest.failf "bucket %d badly skewed: %d" i count)
    buckets

(* [chance t (threshold p)] answers [float t 1.0 < p] draw for draw:
   twin generators agree on every answer and stay in step, for random
   probabilities, the edge values, and probabilities one ulp either
   side of a drawn value. *)
let test_chance_is_float_draw () =
  let agree seed p =
    let a = Prng.create seed and b = Prng.create seed in
    let k = Prng.threshold p in
    for _ = 1 to 200 do
      if Prng.chance a k <> (Prng.float b 1.0 < p) then
        Alcotest.failf "seed %d, p %h: answers differ" seed p
    done;
    Alcotest.(check int) "in step" (Prng.int a 1_000_000) (Prng.int b 1_000_000)
  in
  let rng = Prng.create 42 in
  for seed = 1 to 200 do
    let x = Prng.float (Prng.create seed) 1.0 in
    List.iter (agree seed)
      [ Prng.float rng 1.0; Prng.float rng 0.01; x; Float.pred x; Float.succ x;
        0.; -0.5; 1.; 1e-300; 0.05 ]
  done

let () =
  Alcotest.run "prng"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "bool mixes" `Quick test_bool_mixes;
          Alcotest.test_case "pick" `Quick test_pick;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutation;
          Alcotest.test_case "split" `Quick test_split_independence;
          Alcotest.test_case "rough uniformity" `Quick test_uniformity_rough;
          Alcotest.test_case "chance = float draw" `Quick
            test_chance_is_float_draw;
        ] );
    ]

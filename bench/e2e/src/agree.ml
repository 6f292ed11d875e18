(* `e2e agree A.json... [-- B.json...]`: do two sets of runs of the same
   commit agree within the benchmark's own bounds?

   For each (workload, end-to-end metric) it prints each set's
   quartiles, the relative difference of the medians and the spread
   (interquartile distance over the median).  A spread wider than the
   metric's bound is [unresolved]; medians further apart than the bound
   [DISAGREE].  Per-layer count metrics must be identical in every run.
   Exits 1 on any disagreement. *)

module Json = Obs.Json

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let str k j = Option.bind (Json.member k j) Json.to_str
let num k j = Option.bind (Json.member k j) Json.to_float
let arr k j = match Json.member k j with Some (Json.Arr l) -> l | _ -> []

(* Python's statistics.quantiles(xs, n=4), the default exclusive
   method. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* workload -> metric -> values, from the --json files of a run set *)
let load paths =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun p ->
      let j = read_json p in
      let w = Option.value (str "workload" j) ~default:"?" in
      match Json.member "metrics" j with
      | Some (Json.Obj ms) ->
        List.iter
          (fun (name, m) ->
            match (num "value" m, str "unit" m) with
            | Some v, Some unit ->
              let k = (w, name) in
              let prev = Option.value (Hashtbl.find_opt tbl k) ~default:(unit, []) in
              Hashtbl.replace tbl k (unit, v :: snd prev)
            | _ -> ())
          ms
      | _ -> ())
    paths;
  tbl

let main ~benchmark a b =
  let spec = read_json benchmark in
  let bounds =
    List.filter_map
      (fun m ->
        match (str "name" m, num "bound" m) with
        | Some n, Some bound -> Some (n, bound)
        | _ -> None)
      (arr "end_to_end" spec)
  in
  let ta = load a and tb = load b in
  let workloads =
    Hashtbl.fold (fun (w, _) _ acc -> if List.mem w acc then acc else w :: acc) ta []
    |> List.sort compare
  in
  let bad = ref 0 in
  let cell (q1, q2, q3) = Printf.sprintf "%.4g/%.4g/%.4g" q1 q2 q3 in
  let spread (q1, q2, q3) = if q2 = 0. then 0. else (q3 -. q1) /. Float.abs q2 in
  let rows =
    List.concat_map
      (fun w ->
        let e2e =
          List.filter_map
            (fun (name, bound) ->
              match Hashtbl.find_opt ta (w, name) with
              | None -> None
              | Some (_, va) ->
                let qa = quartiles va in
                let qb = Option.map (fun (_, vb) -> quartiles vb) (Hashtbl.find_opt tb (w, name)) in
                let _, ma, _ = qa in
                let delta =
                  Option.map (fun (_, mb, _) -> if ma = 0. then 0. else (mb -. ma) /. Float.abs ma) qb
                in
                let unresolved =
                  spread qa > bound || Option.fold ~none:false ~some:(fun q -> spread q > bound) qb
                in
                let verdict =
                  match delta with
                  | Some d when Float.abs d > bound -> "DISAGREE"
                  | _ when unresolved -> "unresolved"
                  | Some _ -> "agree"
                  | None -> "ok"
                in
                if verdict = "DISAGREE" then incr bad;
                Some
                  [ w; name; string_of_int (List.length va); cell qa;
                    Option.fold ~none:"-" ~some:cell qb;
                    Option.fold ~none:"-" ~some:(Printf.sprintf "%+.3f") delta;
                    Printf.sprintf "%.3f" (max (spread qa) (Option.fold ~none:0. ~some:spread qb));
                    Printf.sprintf "%.2f" bound; verdict ])
            bounds
        in
        (* Per-layer counts repeat exactly, in every run of both sets. *)
        let counts =
          Hashtbl.fold
            (fun (w', name) (unit, va) acc ->
              if w' <> w || unit <> "count" then acc
              else
                let vb = Option.fold ~none:[] ~some:snd (Hashtbl.find_opt tb (w, name)) in
                match va @ vb with
                | v :: rest when List.exists (( <> ) v) rest ->
                  incr bad;
                  [ w; name; string_of_int (List.length va); "-"; "-"; "-"; "-"; "0"; "DISAGREE" ] :: acc
                | _ -> acc)
            ta []
        in
        e2e @ counts)
      workloads
  in
  print_string
    (Obs.Metrics.render_table
       ([ "workload"; "metric"; "runs"; "A q1/med/q3"; "B q1/med/q3"; "delta";
          "spread"; "bound"; "verdict" ]
       :: rows));
  if !bad > 0 then begin
    Printf.printf "%d metric(s) disagree\n" !bad;
    exit 1
  end

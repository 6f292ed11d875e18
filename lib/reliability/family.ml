module Graph = Netlist.Graph

type t =
  | Drop of { rate : float }
  | Chaos of {
      drop : float;
      duplicate : float;
      corrupt : float;
      jitter : int;
    }
  | Brownout of { rate : float; ticks : int list }

let name = function
  | Drop _ -> "drop"
  | Chaos _ -> "chaos"
  | Brownout _ -> "brownout"

(* %.12g keeps the rendering canonical (no trailing zeros) while still
   round-tripping every rate anyone would type. *)
let f = Printf.sprintf "%.12g"

let to_string = function
  | Drop { rate } -> Printf.sprintf "drop:%s" (f rate)
  | Chaos { drop; duplicate; corrupt; jitter } ->
    Printf.sprintf "chaos:%s,%s,%s,%d" (f drop) (f duplicate) (f corrupt)
      jitter
  | Brownout { rate; ticks } ->
    Printf.sprintf "brownout:%s@%s" (f rate)
      (String.concat "," (List.map string_of_int ticks))

let prob what s =
  match float_of_string_opt s with
  | Some p when p >= 0. && p <= 1. -> Ok p
  | Some _ -> Error (Printf.sprintf "%s must be in [0, 1]: %s" what s)
  | None -> Error (Printf.sprintf "%s is not a number: %s" what s)

let ( let* ) = Result.bind

let of_string s =
  match String.index_opt s ':' with
  | None ->
    Error
      (Printf.sprintf
         "no ':' in fault family %S (expected drop:R, \
          chaos:DROP,DUP,CORRUPT,JITTER, or brownout:R@T1,T2,...)"
         s)
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "drop" ->
       let* rate = prob "drop rate" rest in
       Ok (Drop { rate })
     | "chaos" ->
       (match String.split_on_char ',' rest with
        | [ d; u; c; j ] ->
          let* drop = prob "drop rate" d in
          let* duplicate = prob "duplicate rate" u in
          let* corrupt = prob "corrupt rate" c in
          (match int_of_string_opt j with
           | Some jitter when jitter >= 0 && jitter <= Sim.Fault.max_jitter ->
             Ok (Chaos { drop; duplicate; corrupt; jitter })
           | _ ->
             Error
               (Printf.sprintf "jitter must be a whole number in 0..%d: %s"
                  Sim.Fault.max_jitter j))
        | _ ->
          Error
            (Printf.sprintf "chaos wants DROP,DUP,CORRUPT,JITTER: %s" rest))
     | "brownout" ->
       (match String.index_opt rest '@' with
        | None -> Error (Printf.sprintf "brownout wants RATE@TICKS: %s" rest)
        | Some j ->
          let* rate = prob "brownout rate" (String.sub rest 0 j) in
          let ticks_s =
            String.sub rest (j + 1) (String.length rest - j - 1)
          in
          let* ticks =
            List.fold_right
              (fun t acc ->
                let* acc = acc in
                match int_of_string_opt t with
                | Some n when n >= 0 -> Ok (n :: acc)
                | _ -> Error (Printf.sprintf "bad brownout tick: %s" t))
              (String.split_on_char ',' ticks_s)
              (Ok [])
          in
          if ticks = [] then Error "brownout wants at least one tick"
          else Ok (Brownout { rate; ticks }))
     | k -> Error (Printf.sprintf "unknown fault family %S" k))

let plan family ~seed g =
  match family with
  | Drop { rate } -> Sim.Fault.drop_all ~seed rate
  | Chaos { drop; duplicate; corrupt; jitter } ->
    Sim.Fault.degrade_all ~seed ~drop ~duplicate ~corrupt ~jitter ()
  | Brownout { rate; ticks } ->
    (* Which blocks brown out at which ticks is decided here, not at
       simulation time, so the plan itself is a pure function of
       (family, seed, graph).  One stream, consumed over inner nodes in
       increasing id order, keeps that reproducible. *)
    let rng = Prng.create seed in
    let node_faults =
      List.filter_map
        (fun id ->
          let reset_at =
            List.filter (fun _tick -> Prng.float rng 1.0 < rate) ticks
          in
          if reset_at = [] then None
          else Some (id, { Sim.Fault.no_node_fault with reset_at }))
        (Graph.inner_nodes g)
    in
    { Sim.Fault.none with seed; node_faults }

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type step = {
  time : int;
  sensor : Node_id.t;
  value : bool;
}

type script = step list

let pp_step ppf { time; sensor; value } =
  Format.fprintf ppf "@%d sensor %d <- %b" time sensor value

let pp ppf script =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_step ppf script

let apply engine script =
  List.iter
    (fun { time; sensor; value } ->
      Engine.set_sensor_at engine ~time sensor value)
    script

let random ~rng ~sensors ~steps ~spacing =
  if steps < 0 then invalid_arg "Stimulus.random: steps must be nonnegative";
  (* Prng.int needs a positive bound; a spacing of 0 (or less) means
     "as dense as possible", which is one tick between steps. *)
  let spacing = max 1 spacing in
  if sensors = [] then []
  else begin
    let states = Hashtbl.create (List.length sensors) in
    List.iter (fun s -> Hashtbl.replace states s false) sensors;
    let rec build time remaining acc =
      if remaining = 0 then List.rev acc
      else begin
        let time = time + 1 + Prng.int rng spacing in
        let sensor = Prng.pick rng sensors in
        let value = not (Hashtbl.find states sensor) in
        Hashtbl.replace states sensor value;
        build time (remaining - 1) ({ time; sensor; value } :: acc)
      end
    in
    build 0 steps []
  end

let settled_outputs engine script =
  let ordered =
    List.stable_sort (fun a b -> Int.compare a.time b.time) script
  in
  (* Settling may run timers past the next step's nominal time; the step
     is then applied "as soon as possible".  Quiescence makes the settled
     values depend only on the order of sensor changes, so observations
     from two different networks remain comparable point by point. *)
  List.map
    (fun step ->
      let time = max step.time (Engine.now engine) in
      Engine.set_sensor_at engine ~time step.sensor step.value;
      Engine.settle engine;
      (step.time, Engine.output_values engine))
    ordered

type row = {
  name : string;
  calls : int;
  total_ns : float;
  self_ns : float;
  p50_ns : float;
  p99_ns : float;
}

type frame = {
  f_name : string;
  f_start : int64;
  mutable f_child_ns : float;
}

(* One stack per lane: a lane's records nest, whatever the other
   lanes' records around them do. *)
let of_spans spans =
  let table = Hashtbl.create 16 in
  let stacks = Hashtbl.create 4 in
  let stack lane = Option.value (Hashtbl.find_opt stacks lane) ~default:[] in
  List.iter
    (fun (s : Journal.span) ->
      if s.begins then
        Hashtbl.replace stacks s.lane
          ({ f_name = s.name; f_start = s.ts_ns; f_child_ns = 0. }
          :: stack s.lane)
      else
        match stack s.lane with
        | [] -> () (* recording started mid-span: ignore the unmatched end *)
        | frame :: rest ->
          Hashtbl.replace stacks s.lane rest;
          let dur = Int64.to_float (Int64.sub s.ts_ns frame.f_start) in
          let calls, total_ns, self_ns, durs =
            Option.value
              (Hashtbl.find_opt table frame.f_name)
              ~default:(0, 0., 0., [])
          in
          Hashtbl.replace table frame.f_name
            ( calls + 1,
              total_ns +. dur,
              self_ns +. (dur -. frame.f_child_ns),
              dur :: durs );
          (match rest with
           | parent :: _ -> parent.f_child_ns <- parent.f_child_ns +. dur
           | [] -> ()))
    spans;
  Hashtbl.fold
    (fun name (calls, total_ns, self_ns, durs) acc ->
      let sorted = Array.of_list durs in
      Array.sort Float.compare sorted;
      let rank p =
        sorted.(max 0 (int_of_float (Float.ceil (p *. float_of_int calls)) - 1))
      in
      { name; calls; total_ns; self_ns; p50_ns = rank 0.5; p99_ns = rank 0.99 }
      :: acc)
    table []
  |> List.sort (fun a b -> compare b.self_ns a.self_ns)

let to_table ?(top = 15) rows =
  if rows = [] then "(no spans recorded)\n"
  else begin
    let wall = List.fold_left (fun acc r -> acc +. r.self_ns) 0. rows in
    let shown = List.filteri (fun i _ -> i < top) rows in
    let dropped = List.length rows - List.length shown in
    let q = Metrics.pp_quantity ~time:true in
    let body =
      Metrics.render_table
        ([ "span"; "calls"; "total"; "self"; "self%"; "p50"; "p99" ]
         :: List.map
              (fun r ->
                [ r.name; string_of_int r.calls; q r.total_ns; q r.self_ns;
                  (if wall > 0. then
                     Printf.sprintf "%.1f%%" (r.self_ns /. wall *. 100.)
                   else "-");
                  q r.p50_ns; q r.p99_ns ])
              shown)
    in
    if dropped > 0 then
      body ^ Printf.sprintf "(%d more span name(s) below the top %d)\n"
               dropped top
    else body
  end

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type probe = {
  node : Node_id.t;
  port : int;
  label : string;
}

let output_probes g =
  List.map
    (fun id ->
      { node = id; port = 0; label = (Graph.node g id).Graph.label })
    (Graph.primary_outputs g)

(* VCD identifier codes: short strings over the printable range. *)
let id_code index =
  let base = 94 and first = 33 in
  let rec build index acc =
    let acc = String.make 1 (Char.chr (first + (index mod base))) ^ acc in
    if index < base then acc else build ((index / base) - 1) acc
  in
  build index ""

let sanitize label =
  String.map (fun c -> if c = ' ' || c = '$' then '_' else c) label

let probe_value engine g probe =
  match Graph.kind g probe.node with
  | Eblock.Kind.Output -> Engine.output_value engine probe.node
  | Eblock.Kind.Sensor | Eblock.Kind.Compute | Eblock.Kind.Comm
  | Eblock.Kind.Programmable ->
    Engine.port_value engine probe.node probe.port

let render_value code (v : Behavior.Ast.value) =
  match v with
  | Behavior.Ast.Bool b -> Printf.sprintf "%d%s" (Bool.to_int b) code
  | Behavior.Ast.Int n ->
    let bits = Buffer.create 18 in
    for bit = 15 downto 0 do
      Buffer.add_char bits (if (n lsr bit) land 1 = 1 then '1' else '0')
    done;
    Printf.sprintf "b%s %s" (Buffer.contents bits) code

(* Cap the number of processed events so oscillating networks still
   produce a (truncated) waveform instead of hanging. *)
let event_limit = 100_000

(* Fault-strike markers: one 16-bit cumulative counter per injection
   class, in their own scope, so a waveform viewer shows exactly which
   tick each strike landed on next to the signals it perturbed
   (doc/fault-injection.md). *)
let fault_counters =
  [ "fault_drops"; "fault_duplicates"; "fault_corruptions"; "fault_jittered";
    "fault_dead_losses"; "fault_resets"; "fault_stuck" ]

let record ?(extra_probes = []) ?faults g script =
  let probes = output_probes g @ extra_probes in
  let codes = List.mapi (fun i _ -> id_code i) probes in
  let markers =
    match faults with
    | None -> []
    | Some _ ->
      List.mapi
        (fun i label -> (label, id_code (List.length probes + i)))
        fault_counters
  in
  let engine = Engine.create ?faults g in
  Stimulus.apply engine script;
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "$version paredown eBlock simulator $end\n";
  out "$timescale 1 us $end\n";
  out "$scope module network $end\n";
  List.iter2
    (fun probe code ->
      let kind, width =
        match probe_value engine g probe with
        | Behavior.Ast.Bool _ -> ("wire", 1)
        | Behavior.Ast.Int _ -> ("reg", 16)
      in
      out "$var %s %d %s %s $end\n" kind width code
        (sanitize probe.label))
    probes codes;
  out "$upscope $end\n";
  if markers <> [] then begin
    out "$scope module faults $end\n";
    List.iter
      (fun (label, code) -> out "$var reg 16 %s %s $end\n" code label)
      markers;
    out "$upscope $end\n"
  end;
  out "$enddefinitions $end\n";
  let current = Hashtbl.create 8 in
  (* one cumulative count per marker; no markers without a plan *)
  let marker_values () =
    match Engine.fault_stats engine with
    | Some stats -> List.map (fun n -> Behavior.Ast.Int n) (Fault.counts stats)
    | None -> []
  in
  out "$dumpvars\n";
  List.iter2
    (fun probe code ->
      let v = probe_value engine g probe in
      Hashtbl.replace current code v;
      out "%s\n" (render_value code v))
    probes codes;
  List.iter2
    (fun (_, code) v ->
      Hashtbl.replace current code v;
      out "%s\n" (render_value code v))
    markers (marker_values ());
  out "$end\n";
  let last_emitted_time = ref (-1) in
  let emit_change code v =
    if not (Behavior.Ast.equal_value (Hashtbl.find current code) v)
    then begin
      Hashtbl.replace current code v;
      let time = Engine.now engine in
      if time <> !last_emitted_time then begin
        out "#%d\n" time;
        last_emitted_time := time
      end;
      out "%s\n" (render_value code v)
    end
  in
  let sample () =
    List.iter2
      (fun probe code -> emit_change code (probe_value engine g probe))
      probes codes;
    List.iter2 (fun (_, code) v -> emit_change code v) markers
      (marker_values ())
  in
  let rec drain remaining =
    if remaining > 0 && Engine.step engine then begin
      sample ();
      drain (remaining - 1)
    end
  in
  drain event_limit;
  out "#%d\n" (Engine.now engine + 1);
  Buffer.contents buf

let write_file path ?extra_probes ?faults g script =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (record ?extra_probes ?faults g script))

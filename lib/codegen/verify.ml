module Graph = Netlist.Graph
module Node_id = Netlist.Node_id
module Ast = Behavior.Ast
module Compile = Behavior.Compile

let m_proven =
  Obs.Metrics.counter "codegen.verify.proven"
    ~doc:"partitions proven equivalent by exhaustive enumeration"
let m_bounded =
  Obs.Metrics.counter "codegen.verify.bounded"
    ~doc:"partitions equivalent over their explored product state space"
let m_cosim_passed =
  Obs.Metrics.counter "codegen.verify.cosim_passed"
    ~doc:"partitions with agreeing differential co-simulation"
let m_failed =
  Obs.Metrics.counter "codegen.verify.failed" ~doc:"partitions with a verdict of failed"
let m_skipped =
  Obs.Metrics.counter "codegen.verify.skipped"
    ~doc:"partitions with no equivalence evidence either way"
let h_input_bits =
  Obs.Metrics.histogram "codegen.verify.input_bits"
    ~doc:"external input pins per checked partition"
let h_product_states =
  Obs.Metrics.histogram "codegen.verify.product_states"
    ~doc:"product states visited by bounded sequential proofs"

type counterexample = {
  trail : bool array list;
  pin : int;
  merged : Ast.value;
  composed : Ast.value;
}

type failure =
  | Mismatch of counterexample
  | Cosim_mismatch of Cosim.failure

type status =
  | Proven
  | Bounded_equivalent of { states : int; depth : int }
  | Cosim_passed of { scripts : int; checks : int }
  | Failed of failure
  | Skipped of string

type config = {
  max_input_bits : int;
  max_states : int;
  max_depth : int;
  max_transitions : int;
  cosim : Cosim.config;
}

let default_config =
  {
    max_input_bits = 10;
    max_states = 4096;
    max_depth = 64;
    max_transitions = 100_000;
    cosim = Cosim.default_config;
  }

let pp_assignment ppf a =
  Format.fprintf ppf "[%s]"
    (String.concat "; " (List.map string_of_bool (Array.to_list a)))

let pp_counterexample ppf cx =
  Format.fprintf ppf
    "after input sequence %a: merged drives pin %d to %a but the network \
     computes %a"
    (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_assignment)
    cx.trail cx.pin Ast.pp_value cx.merged Ast.pp_value cx.composed

let pp_status ppf = function
  | Proven -> Format.pp_print_string ppf "equivalent (proven exhaustively)"
  | Bounded_equivalent { states; depth } ->
    Format.fprintf ppf
      "equivalent over the full product state space (%d state(s), input \
       sequences up to length %d)"
      states depth
  | Cosim_passed { scripts; checks } ->
    Format.fprintf ppf
      "differential co-simulation agreed (%d script(s), %d check(s))" scripts
      checks
  | Failed (Mismatch cx) -> Format.fprintf ppf "MISMATCH: %a" pp_counterexample cx
  | Failed (Cosim_mismatch f) ->
    Format.fprintf ppf "COSIM MISMATCH: %a" Cosim.pp_failure f
  | Skipped reason -> Format.fprintf ppf "skipped: %s" reason

let is_combinational (d : Eblock.Descriptor.t) =
  d.behavior.Ast.state = [] && not (Ast.uses_timer d.behavior)

(* --- lockstep machines ------------------------------------------------ *)

(* Both sides are activated once per external input assignment:
   the merged program directly, the members in level order over the
   subgraph.  Outputs are latched (undriven means "keep the previous
   value"), matching both the engine's packet semantics and the wire
   initialisation Behavior.Merge performs from [output_init]. *)

type member_info = {
  mi_id : Node_id.t;
  mi_desc : Eblock.Descriptor.t;
  mi_prog : Compile.t;
}

type composed = {
  cm_states : Compile.state array;  (* one store per member, plan order *)
  cm_ports : (Graph.endpoint, Ast.value) Hashtbl.t;
}

let init_composed infos =
  let ports = Hashtbl.create 32 in
  Array.iter
    (fun { mi_id; mi_desc; _ } ->
      (* every member output starts at its declared power-on value — an
         output nobody has driven yet must read as [output_init], not as
         an arbitrary [false] *)
      Array.iteri
        (fun port v -> Hashtbl.replace ports { Graph.node = mi_id; port } v)
        mi_desc.Eblock.Descriptor.output_init)
    infos;
  {
    cm_states = Array.map (fun i -> Compile.fresh_state i.mi_prog) infos;
    cm_ports = ports;
  }

let copy_composed c =
  {
    cm_states = Array.map Compile.copy_state c.cm_states;
    cm_ports = Hashtbl.copy c.cm_ports;
  }

let step_composed g member_set ext_of_dst infos c assignment =
  Array.iteri
    (fun i { mi_id = id; mi_desc = d; mi_prog } ->
      let open Eblock.Descriptor in
      let inputs =
        Array.init d.n_inputs (fun port ->
            match Graph.driver g id port with
            | Some src when Node_id.Set.mem src.Graph.node member_set ->
              (match Hashtbl.find_opt c.cm_ports src with
               | Some v -> v
               | None -> assert false (* pre-initialised above *))
            | Some _ | None ->
              (* crossing connection: fed by an external pin.  Plan.build
                 already rejected undriven ports, so the lookup succeeds. *)
              (match Hashtbl.find_opt ext_of_dst { Graph.node = id; port } with
               | Some pin -> Ast.Bool assignment.(pin)
               | None -> assert false))
      in
      let st = c.cm_states.(i) in
      Compile.run mi_prog st ~inputs ~fired:(-1);
      Array.iteri
        (fun port driven ->
          (* undriven: latched, keep the previous value *)
          if driven then
            Hashtbl.replace c.cm_ports { Graph.node = id; port }
              st.Compile.out_val.(port))
        st.Compile.out_set)
    infos

type merged = {
  mg_prog : Compile.t;
  mg_state : Compile.state;
  mg_latch : Ast.value array;
}

let init_merged (plan : Plan.t) =
  let mg_prog =
    Compile.compile plan.Plan.program
      ~n_outputs:(Array.length plan.Plan.output_pins)
  in
  {
    mg_prog;
    mg_state = Compile.fresh_state mg_prog;
    mg_latch = Array.copy plan.Plan.output_init;
  }

let copy_merged m =
  {
    m with
    mg_state = Compile.copy_state m.mg_state;
    mg_latch = Array.copy m.mg_latch;
  }

let step_merged m assignment =
  let inputs = Array.map (fun b -> Ast.Bool b) assignment in
  let st = m.mg_state in
  Compile.run m.mg_prog st ~inputs ~fired:(-1);
  Array.iteri
    (fun pin driven ->
      if driven then m.mg_latch.(pin) <- st.Compile.out_val.(pin))
    st.Compile.out_set

let first_divergence (plan : Plan.t) c m =
  let n = Array.length plan.Plan.output_pins in
  let rec go pin =
    if pin >= n then None
    else begin
      let internal_src, _ = plan.Plan.output_pins.(pin) in
      let composed_value =
        match Hashtbl.find_opt c.cm_ports internal_src with
        | Some v -> v
        | None -> assert false
      in
      let merged_value = m.mg_latch.(pin) in
      if Ast.equal_value merged_value composed_value then go (pin + 1)
      else Some (pin, merged_value, composed_value)
    end
  in
  go 0

let assignment_of_index n index =
  Array.init n (fun bit -> (index lsr bit) land 1 = 1)

let ext_table (plan : Plan.t) =
  let table = Hashtbl.create 16 in
  Array.iteri
    (fun pin (_, dst) -> Hashtbl.replace table dst pin)
    plan.Plan.input_pins;
  table

(* --- tier 1: exhaustive combinational proof --------------------------- *)

let enumerate g member_set ext_of_dst infos (plan : Plan.t) =
  let n_inputs = Array.length plan.Plan.input_pins in
  let c0 = init_composed infos and m0 = init_merged plan in
  let rec go index =
    if index >= 1 lsl n_inputs then Proven
    else begin
      let assignment = assignment_of_index n_inputs index in
      (* every assignment starts from power-on *)
      let c = copy_composed c0 and m = copy_merged m0 in
      step_composed g member_set ext_of_dst infos c assignment;
      step_merged m assignment;
      match first_divergence plan c m with
      | None -> go (index + 1)
      | Some (pin, merged, composed) ->
        Failed (Mismatch { trail = [ assignment ]; pin; merged; composed })
    end
  in
  go 0

(* --- tier 2: bounded sequential product exploration ------------------- *)

let port_order infos =
  Array.to_list infos
  |> List.concat_map (fun { mi_id; mi_desc; _ } ->
         List.init mi_desc.Eblock.Descriptor.n_outputs (fun port ->
             { Graph.node = mi_id; port }))

let state_key ports m c =
  let buf = Buffer.create 128 in
  let add_value v =
    (match (v : Ast.value) with
     | Bool true -> Buffer.add_char buf 't'
     | Bool false -> Buffer.add_char buf 'f'
     | Int n ->
       Buffer.add_char buf 'i';
       Buffer.add_string buf (string_of_int n));
    Buffer.add_char buf ';'
  in
  (* every state of one exploration runs the same programs, so the
     slot-to-variable mapping is fixed and slot order names each value *)
  let add_store (st : Compile.state) =
    Array.iteri
      (fun slot v ->
        if st.Compile.defined.(slot) then add_value v
        else Buffer.add_string buf "u;")
      st.Compile.vars
  in
  add_store m.mg_state;
  Buffer.add_char buf '|';
  Array.iter add_value m.mg_latch;
  Array.iter
    (fun st ->
      Buffer.add_char buf '|';
      add_store st)
    c.cm_states;
  Buffer.add_char buf '|';
  List.iter
    (fun ep ->
      match Hashtbl.find_opt c.cm_ports ep with
      | Some v -> add_value v
      | None -> assert false)
    ports;
  Buffer.contents buf

type explore_result =
  | Closed of { states : int; depth : int }
  | Diverges of counterexample
  | Exhausted

let explore config g member_set ext_of_dst infos (plan : Plan.t) =
  let n_inputs = Array.length plan.Plan.input_pins in
  let n_assignments = 1 lsl n_inputs in
  let ports = port_order infos in
  let visited = Hashtbl.create 256 in
  let queue = Queue.create () in
  let m0 = init_merged plan and c0 = init_composed infos in
  Hashtbl.replace visited (state_key ports m0 c0) ();
  Queue.add (m0, c0, [], 0) queue;
  let transitions = ref 0 in
  let max_depth_seen = ref 0 in
  let exception Stop of explore_result in
  try
    (* breadth-first, so the first divergence found has a minimal-length
       input sequence; assignments are tried in index order for
       determinism *)
    while not (Queue.is_empty queue) do
      let m, c, trail, depth = Queue.pop queue in
      for index = 0 to n_assignments - 1 do
        incr transitions;
        if
          !transitions > config.max_transitions
          || Hashtbl.length visited > config.max_states
        then raise (Stop Exhausted);
        let assignment = assignment_of_index n_inputs index in
        let m' = copy_merged m and c' = copy_composed c in
        step_merged m' assignment;
        step_composed g member_set ext_of_dst infos c' assignment;
        (match first_divergence plan c' m' with
         | Some (pin, merged, composed) ->
           raise
             (Stop
                (Diverges
                   {
                     trail = List.rev (assignment :: trail);
                     pin;
                     merged;
                     composed;
                   }))
         | None -> ());
        let key = state_key ports m' c' in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.replace visited key ();
          let depth' = depth + 1 in
          if depth' > !max_depth_seen then max_depth_seen := depth';
          if depth' < config.max_depth then
            Queue.add (m', c', assignment :: trail, depth') queue
          else
            (* a fresh state at the depth horizon: closure not shown *)
            raise (Stop Exhausted)
        end
      done
    done;
    Closed { states = Hashtbl.length visited; depth = !max_depth_seen }
  with Stop r -> r

(* --- tier 3: randomized differential co-simulation -------------------- *)

let cosim_tier flat g members (plan : Plan.t) =
  let n_in = Array.length plan.Plan.input_pins in
  let n_out = Array.length plan.Plan.output_pins in
  let shape = Core.Shape.make ~inputs:(max 1 n_in) ~outputs:(max 1 n_out) () in
  let solution =
    { Core.Solution.partitions = [ Core.Partition.make ~members ~shape ] }
  in
  match Replace.apply g solution with
  | exception Replace.Replace_error msg ->
    Skipped
      (Printf.sprintf "could not rewrite the partition for co-simulation: %s"
         msg)
  | { Replace.network = candidate; _ } ->
    (match Cosim.run_against ~reference:flat candidate with
     | Cosim.Agreed { scripts; checks } -> Cosim_passed { scripts; checks }
     | Cosim.Diverged f -> Failed (Cosim_mismatch f)
     | Cosim.Inconclusive reason -> Skipped reason)

(* --- dispatch --------------------------------------------------------- *)

let tier_label = function
  | Proven -> "proven"
  | Bounded_equivalent _ -> "bounded"
  | Cosim_passed _ -> "cosim"
  | Failed _ -> "failed"
  | Skipped _ -> "skipped"

let record ~members status =
  (match status with
   | Proven -> Obs.Metrics.incr m_proven
   | Bounded_equivalent { states; _ } ->
     Obs.Metrics.incr m_bounded;
     Obs.Histogram.observe_int h_product_states states
   | Cosim_passed _ -> Obs.Metrics.incr m_cosim_passed
   | Failed _ -> Obs.Metrics.incr m_failed
   | Skipped _ -> Obs.Metrics.incr m_skipped);
  if Obs.Journal.enabled () then
    Obs.Journal.emit
      (Obs.Journal.Verify_tier
         {
           members = Node_id.Set.elements members;
           tier = tier_label status;
           detail = Format.asprintf "%a" pp_status status;
         });
  (match status with
   | Failed _ ->
     Obs.Journal.note_failure
       (Format.asprintf "verification failed: %a" pp_status status)
   | _ -> ());
  status

(* [flat] is the flat side of tier 3 ({!Cosim.reference} of [g] under
   [config.cosim]) and [d] the {!Netlist.Dense} view of [g], both shared
   by every partition of one solution. *)
let verify_partition config flat d members =
  Obs.Journal.with_span "codegen.verify"
    ~args:[ ("members", string_of_int (Node_id.Set.cardinal members)) ]
  @@ fun () ->
  let g = Netlist.Dense.graph d in
  let plan = Plan.build d members in
  let infos =
    Array.of_list
      (List.map
         (fun id ->
           let d = Graph.descriptor g id in
           {
             mi_id = id;
             mi_desc = d;
             mi_prog =
               Compile.compile d.Eblock.Descriptor.behavior
                 ~n_outputs:d.Eblock.Descriptor.n_outputs;
           })
         plan.Plan.members)
  in
  let n_inputs = Array.length plan.Plan.input_pins in
  Obs.Histogram.observe_int h_input_bits n_inputs;
  let uses_timer =
    Array.exists
      (fun i -> Ast.uses_timer i.mi_desc.Eblock.Descriptor.behavior)
      infos
  in
  record ~members
  @@
  if uses_timer then
    (* timer expiries are engine events, not input-driven transitions:
       the lockstep machines cannot model them, so go straight to
       differential co-simulation *)
    cosim_tier flat g members plan
  else if n_inputs > min config.max_input_bits (Sys.int_size - 2) then
    (* 2^n_inputs assignments per product state would blow the budget,
       and past [Sys.int_size - 2] pins [1 lsl n] is no longer a
       positive int, so the enumeration would check nothing; fall back
       to sampling *)
    cosim_tier flat g members plan
  else begin
    let ext_of_dst = ext_table plan in
    let stateless =
      Array.for_all (fun i -> is_combinational i.mi_desc) infos
    in
    if stateless then enumerate g members ext_of_dst infos plan
    else
      match explore config g members ext_of_dst infos plan with
      | Closed { states; depth } -> Bounded_equivalent { states; depth }
      | Diverges cx -> Failed (Mismatch cx)
      | Exhausted -> cosim_tier flat g members plan
  end

let check_partition ?(config = default_config) g members =
  verify_partition config
    (Cosim.reference ~config:config.cosim g)
    (Netlist.Dense.of_graph g) members

(* --- whole-solution report -------------------------------------------- *)

type report = { results : (Core.Partition.t * status) list }

let check_solution ?(config = default_config) g solution =
  let flat = Cosim.reference ~config:config.cosim g in
  let d = lazy (Netlist.Dense.of_graph g) in
  {
    results =
      List.map
        (fun (p : Core.Partition.t) ->
          ( p,
            verify_partition config flat (Lazy.force d)
              p.Core.Partition.members ))
        solution.Core.Solution.partitions;
  }

let ok report =
  List.for_all
    (fun (_, s) -> match s with Failed _ -> false | _ -> true)
    report.results

type tally = {
  proven : int;
  bounded : int;
  cosim_passed : int;
  failed : int;
  skipped : int;
}

let tally report =
  List.fold_left
    (fun t (_, s) ->
      match s with
      | Proven -> { t with proven = t.proven + 1 }
      | Bounded_equivalent _ -> { t with bounded = t.bounded + 1 }
      | Cosim_passed _ -> { t with cosim_passed = t.cosim_passed + 1 }
      | Failed _ -> { t with failed = t.failed + 1 }
      | Skipped _ -> { t with skipped = t.skipped + 1 })
    { proven = 0; bounded = 0; cosim_passed = 0; failed = 0; skipped = 0 }
    report.results

let summary report =
  let t = tally report in
  Printf.sprintf
    "%d proven, %d bounded, %d cosim-passed, %d failed, %d skipped" t.proven
    t.bounded t.cosim_passed t.failed t.skipped

let pp_report ppf report =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i ((p : Core.Partition.t), s) ->
      Format.fprintf ppf "partition %d {%s}: %a@," i
        (String.concat ", "
           (List.map string_of_int (Node_id.Set.elements p.Core.Partition.members)))
        pp_status s)
    report.results;
  Format.fprintf ppf "%s@]" (summary report)

module Json = Obs.Json

let schema = "paredown-solution-cache"
let version = 1
let default_capacity = 4096

(* Inserts between store writes, besides the one at batch drain. *)
let flush_every = 32

let m_hits = Obs.Metrics.counter "service.cache_hits"
let m_misses = Obs.Metrics.counter "service.cache_misses"
let m_evictions = Obs.Metrics.counter "service.cache_evictions"

type t = {
  table : Json.t Obs.Lru.t;
  path : string option;
  mutable hits : int;
  mutable misses : int;
  mutable unflushed : int;
}

type stats = { hits : int; misses : int; entries : int; evictions : int }

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    entries = Obs.Lru.length t.table;
    evictions = Obs.Lru.evictions t.table;
  }

(* ------------------------------------------------------------------ *)
(* Persistence.  Oldest-first entry order: re-[put]ting in file order
   reproduces both contents and recency, so a reloaded cache evicts in
   the same order the resident one would have. *)

let to_json t =
  let entries =
    Obs.Lru.fold_oldest_first
      (fun acc key value ->
        Json.Obj [ ("key", Json.Str key); ("value", value) ] :: acc)
      t.table []
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("version", Json.Num (float_of_int version));
      ("entries", Json.Arr (List.rev entries));
    ]

let save t =
  match t.path with
  | None -> ()
  | Some path ->
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Json.to_string ~indent:2 (to_json t)));
    Sys.rename tmp path;
    t.unflushed <- 0

let ( let* ) = Result.bind

(* A bad header or a missing entries array is an error (the caller
   starts empty); an entry without a string key and a value is skipped,
   so it can only cost a miss. *)
let load_into table path =
  if not (Sys.file_exists path) then Ok 0
  else begin
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Result.map_error (fun e -> "cache file: " ^ e)
    @@
    let* j = Json.of_string text in
    let* () = Json.header ~schema ~version j in
    let* entries = Json.field "entries" (Json.list Json.any) j in
    let n = ref 0 in
    List.iter
      (fun e ->
        match
          (Json.field "key" Json.string e, Json.field "value" Json.any e)
        with
        | Ok key, Ok value ->
          Obs.Lru.put table key value;
          incr n
        | _ -> ())
      entries;
    Ok !n
  end

let create ?(capacity = default_capacity) ?path () =
  let table = Obs.Lru.create ~capacity in
  let loaded =
    match path with
    | None -> Ok 0
    | Some p -> (
      match load_into table p with
      | Ok n -> Ok n
      | Error e ->
        (* A stale or foreign file must not brick the server: warn,
           start empty, and let the next flush overwrite it. *)
        Error e)
  in
  ( { table; path; hits = 0; misses = 0; unflushed = 0 },
    loaded )

(* ------------------------------------------------------------------ *)
(* Keys *)

let shape_fragment (shape : Core.Shape.t) =
  Printf.sprintf "%dx%d@%h" shape.Core.Shape.inputs shape.Core.Shape.outputs
    shape.Core.Shape.cost

let partition_key ~backend ~shape ~deadline_s canon =
  Printf.sprintf "partition/%s/%s/%s/%s"
    (Oneshot.backend_to_string backend)
    (shape_fragment shape)
    (match deadline_s with None -> "-" | Some d -> Printf.sprintf "%h" d)
    (Canon.digest canon)

(* "weighted-shaped": answers filed under plain "weighted/" keys were
   all searched on 2x2 blocks whatever their key's shape said, so they
   must not replay. *)
let weighted_key ~lambda ~family ~trials ~seed ~shape g =
  Printf.sprintf "weighted-shaped/%h/%s/%d/%d/%s/%s" lambda
    (Reliability.Family.to_string family)
    trials seed (shape_fragment shape)
    (Canon.labels_digest g)

(* ------------------------------------------------------------------ *)
(* Payloads.  Partition solutions are stored in canonical coordinates
   (member = canonical index) so an isomorphic relabelling of the
   network can replay them; the report is re-rendered on the request
   graph, which also makes an exact resubmission byte-identical.
   Weighted results are keyed label-sensitively (fault plans draw from
   node ids), so their report is stored verbatim. *)

let partition_payload canon (solution : Core.Solution.t) work =
  let partitions =
    List.map
      (fun (p : Core.Partition.t) ->
        Json.Obj
          [
            ( "members",
              Json.Arr
                (Netlist.Node_id.Set.elements p.Core.Partition.members
                |> List.map (fun id ->
                       Json.Num (float_of_int (Canon.index_of canon id)))) );
            ( "inputs",
              Json.Num (float_of_int p.Core.Partition.shape.Core.Shape.inputs)
            );
            ( "outputs",
              Json.Num (float_of_int p.Core.Partition.shape.Core.Shape.outputs)
            );
            ("cost", Json.Num p.Core.Partition.shape.Core.Shape.cost);
          ])
      solution.Core.Solution.partitions
  in
  Json.Obj [ ("partitions", Json.Arr partitions); ("work", Json.Obj work) ]

let partition_of_json canon p =
  let open Json in
  let* members = field "members" (list int) p in
  let* inputs = field "inputs" int p in
  let* outputs = field "outputs" int p in
  let* cost = field "cost" float p in
  let members = List.map (Canon.id_of canon) members in
  Ok
    (Core.Partition.make
       ~members:(Netlist.Node_id.set_of_list members)
       ~shape:(Core.Shape.make ~inputs ~outputs ~cost ()))

let solution_of_payload canon payload =
  let partitions = Json.list (partition_of_json canon) in
  match Json.field "partitions" partitions payload with
  | Ok partitions -> { Core.Solution.partitions }
  | Error e -> invalid_arg ("cache payload: " ^ e)

let payload_work payload =
  Result.value (Json.field "work" (Json.obj Json.any) payload) ~default:[]

let weighted_payload ~report work =
  Json.Obj [ ("report", Json.Str report); ("work", Json.Obj work) ]

let weighted_of_payload payload =
  match Json.field "report" Json.string payload with
  | Ok report -> Some (report, payload_work payload)
  | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Lookup / insert *)

let record_hit (t : t) =
  t.hits <- t.hits + 1;
  Obs.Metrics.incr m_hits

let record_miss (t : t) =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr m_misses

let find (t : t) key =
  match Obs.Lru.find t.table key with
  | Some payload ->
    record_hit t;
    Some payload
  | None ->
    record_miss t;
    None

let insert (t : t) key payload =
  let before = Obs.Lru.evictions t.table in
  Obs.Lru.put t.table key payload;
  let evicted = Obs.Lru.evictions t.table - before in
  if evicted > 0 then
    for _ = 1 to evicted do Obs.Metrics.incr m_evictions done;
  t.unflushed <- t.unflushed + 1;
  if t.unflushed >= flush_every then save t

module Json = Obs.Json

let schema = "paredown-solution-cache"
let version = 2
let default_capacity = 4096

(* Inserts between store writes, besides the one at batch drain. *)
let flush_every = 32

let m_hits = Obs.Metrics.counter "service.cache_hits"
let m_misses = Obs.Metrics.counter "service.cache_misses"
let m_evictions = Obs.Metrics.counter "service.cache_evictions"

(* One line of the store: an insert or a hit. *)
type record = Put of string * Json.t | Touch of string

type t = {
  table : Json.t Obs.Lru.t;
  path : string option;
  log : string -> unit;
  mutable hits : int;
  mutable misses : int;
  mutable unflushed : int;  (* inserts since the last save *)
  mutable pending : record list;  (* newest first, not yet on disk *)
  mutable logged : int;  (* records in the file after its header *)
  mutable compact : bool;  (* the next save rewrites the file *)
  replayed_evictions : int;  (* evictions while loading, not serving *)
}

type stats = { hits : int; misses : int; entries : int; evictions : int }

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    entries = Obs.Lru.length t.table;
    evictions = Obs.Lru.evictions t.table - t.replayed_evictions;
  }

(* ------------------------------------------------------------------ *)
(* Persistence: a log of JSON lines after a header line.  Replaying
   each record through the LRU in file order — a put inserts, a touch
   promotes like a hit — reproduces both contents and recency, so a
   reloaded cache evicts in the same order the resident one would have. *)

let header_line =
  Json.to_string
    (Json.Obj
       [ ("schema", Json.Str schema);
         ("version", Json.Num (float_of_int version)) ])

let add_line buf record =
  let j =
    match record with
    | Put (key, value) -> Json.Obj [ ("put", Json.Str key); ("value", value) ]
    | Touch key -> Json.Obj [ ("touch", Json.Str key) ]
  in
  Buffer.add_string buf (Json.to_string j);
  Buffer.add_char buf '\n'

let write_file flags path text =
  let flags = Open_wronly :: Open_creat :: Open_binary :: flags in
  let oc = open_out_gen flags 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text; flush oc)

(* The header and one put per live entry, oldest first, written to a
   temporary file renamed over [path]: the only whole-store write.  A
   failure removes the temporary file, so [path] stays the only one. *)
let rewrite t path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header_line;
  Buffer.add_char buf '\n';
  let n =
    Obs.Lru.fold_oldest_first
      (fun n key value -> add_line buf (Put (key, value)); n + 1)
      t.table 0
  in
  let tmp = path ^ ".tmp" in
  (try
     write_file [ Open_trunc ] tmp (Buffer.contents buf);
     Sys.rename tmp path
   with Sys_error _ as e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  t.logged <- n

let append t path records =
  let buf = Buffer.create 1024 in
  List.iter (add_line buf) records;
  write_file [ Open_append ] path (Buffer.contents buf);
  t.logged <- t.logged + List.length records

let save t =
  match t.path with
  | None -> ()
  | Some path -> (
    let records = List.rev t.pending in
    t.pending <- [];
    t.unflushed <- 0;
    try
      if t.compact
         || t.logged + List.length records > 2 * Obs.Lru.length t.table
      then rewrite t path
      else if records <> [] then append t path records;
      t.compact <- false
    with Sys_error e ->
      (* Whatever reached the file may end in a torn record: the next
         save rewrites the store from the live entries. *)
      t.compact <- true;
      t.log
        (Printf.sprintf
           "cache: warning: cannot save (%s); the next save rewrites the store"
           e))

let writable path =
  let existed = Sys.file_exists path in
  match write_file [ Open_append ] path "" with
  | () ->
    if not existed then (try Sys.remove path with Sys_error _ -> ());
    Ok ()
  | exception Sys_error e -> Error e

let ( let* ) = Result.bind

let record_of_json j =
  match Json.member "put" j with
  | Some _ ->
    let* key = Json.field "put" Json.string j in
    let* value = Json.field "value" Json.any j in
    Ok (Put (key, value))
  | None ->
    let* key = Json.field "touch" Json.string j in
    Ok (Touch key)

let replay table = function
  | Put (key, value) -> Obs.Lru.put table key value
  | Touch key -> ignore (Obs.Lru.find table key)

(* Replay the lines from byte [pos] on, up to the first that is torn
   (no newline) or malformed.  Returns the records replayed and, when
   the loader stopped short of the end, why. *)
let replay_log table text pos =
  let len = String.length text in
  let rec go pos line n =
    if pos >= len then (n, None)
    else
      let dropped why =
        Some
          (Printf.sprintf "line %d %s; dropped the last %d bytes" line why
             (len - pos))
      in
      match String.index_from_opt text pos '\n' with
      | None -> (n, dropped "is torn")
      | Some eol -> (
        match
          Result.bind
            (Json.of_string (String.sub text pos (eol - pos)))
            record_of_json
        with
        | Ok r ->
          replay table r;
          go (eol + 1) (line + 1) (n + 1)
        | Error e -> (n, dropped ("is malformed (" ^ e ^ ")")))
  in
  go pos 2 0

(* Version 1, the format before the log: one indented document with
   its entries oldest first.  It loads as its list of puts; an entry
   without a string key and a value is skipped, so it can only cost a
   miss. *)
let replay_version1 table text =
  let* j = Json.of_string text in
  let* () = Json.header ~schema ~version:1 j in
  let* entries = Json.field "entries" (Json.list Json.any) j in
  List.iter
    (fun e ->
      match (Json.field "key" Json.string e, Json.field "value" Json.any e) with
      | Ok key, Ok value -> replay table (Put (key, value))
      | _ -> ())
    entries;
  Ok ()

type load = { restored : int; warning : string option }

(* Fill [table] from the store at [path].  Returns the record count of
   a whole version-2 log, which the next save may append to ([None]:
   the next save compacts), and a warning for what the load could not
   use. *)
let load_into table path =
  match
    if Sys.file_exists path then
      Some (In_channel.with_open_bin path In_channel.input_all)
    else None
  with
  | exception Sys_error e -> (None, Some ("cannot read: " ^ e))
  | None | Some "" -> (None, None)
  | Some text -> (
    let version1 ~otherwise =
      match replay_version1 table text with
      | Ok () -> (None, None)
      | Error e -> (None, Some (Option.value otherwise ~default:e))
    in
    let eol = String.index_opt text '\n' in
    let first =
      String.sub text 0 (Option.value eol ~default:(String.length text))
    in
    match Json.of_string first with
    | Error _ -> version1 ~otherwise:None
    | Ok h -> (
      match (Json.header ~schema ~version h, eol) with
      | Ok (), Some eol -> (
        match replay_log table text (eol + 1) with
        | n, None -> (Some n, None)
        | _, why -> (None, why))
      | Ok (), None -> (None, Some "line 1 is torn; dropped it")
      | Error e, _ -> version1 ~otherwise:(Some e)))

let create ?(capacity = default_capacity) ?path ?(log = ignore) () =
  let table = Obs.Lru.create ~capacity in
  let logged, warning =
    match path with None -> (None, None) | Some p -> load_into table p
  in
  ( {
      table; path; log; hits = 0; misses = 0; unflushed = 0; pending = [];
      logged = Option.value logged ~default:0;
      (* Anything but a whole version-2 log (no file, a version-1
         document, a dropped tail, a rejected file) is rewritten by the
         next save. *)
      compact = Option.is_none logged;
      replayed_evictions = Obs.Lru.evictions table;
    },
    {
      restored = Obs.Lru.length table;
      warning = Option.map (fun w -> "cache file: " ^ w) warning;
    } )

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

let log_record (t : t) r =
  if Option.is_some t.path then t.pending <- r :: t.pending

let find (t : t) key =
  match Obs.Lru.find t.table key with
  | Some payload ->
    record_hit t;
    log_record t (Touch key);
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
  log_record t (Put (key, payload));
  t.unflushed <- t.unflushed + 1;
  if t.unflushed >= flush_every then save t

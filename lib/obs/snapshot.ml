let schema_name = "paredown-perf-snapshot"
let schema_version = 1

type value =
  | Int of int
  | Float of float

type t = {
  git_rev : string option;
  ocaml_version : string;
  config : (string * string) list;
  metrics : (string * value) list;
  times_ns : (string * float) list;
}

(* ------------------------------------------------------------------ *)
(* Environment fingerprinting *)

let read_first_line path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (String.trim (input_line ic)))
  with Sys_error _ | End_of_file -> None

(* The current git revision, by reading .git directly (no subprocess):
   walk up from [dir] to the repository root, follow HEAD one level of
   indirection.  [None] outside a repository — the snapshot is still
   valid, just unpinned. *)
let git_rev ?(dir = ".") () =
  let rec find_git dir depth =
    if depth > 16 then None
    else
      let candidate = Filename.concat dir ".git" in
      if Sys.file_exists candidate then Some candidate
      else find_git (Filename.concat dir Filename.parent_dir_name) (depth + 1)
  in
  match find_git dir 0 with
  | None -> None
  | Some git_path ->
    let git_dir =
      (* worktrees: .git is a file containing "gitdir: <path>" *)
      if Sys.is_directory git_path then Some git_path
      else
        Option.bind (read_first_line git_path) (fun line ->
            if String.starts_with ~prefix:"gitdir:" line then
              Some
                (String.trim
                   (String.sub line 7 (String.length line - 7)))
            else None)
    in
    Option.bind git_dir (fun git_dir ->
        Option.bind (read_first_line (Filename.concat git_dir "HEAD"))
          (fun head ->
            if String.starts_with ~prefix:"ref: " head then
              let ref_name =
                String.sub head 5 (String.length head - 5)
              in
              read_first_line (Filename.concat git_dir ref_name)
            else Some head))

(* ------------------------------------------------------------------ *)
(* Capture *)

let make ?git_rev:rev ?(config = []) ?(times_ns = []) ~metrics () =
  {
    git_rev = (match rev with Some _ -> rev | None -> git_rev ());
    ocaml_version = Sys.ocaml_version;
    config = List.sort compare config;
    metrics =
      List.sort compare
        (List.map (fun e -> (e.Metrics.name, Int e.Metrics.value)) metrics);
    times_ns = List.sort compare times_ns;
  }

let capture ?git_rev ?config ?times_ns () =
  make ?git_rev ?config ?times_ns ~metrics:(Metrics.snapshot ()) ()

(* ------------------------------------------------------------------ *)
(* JSON encoding *)

let json_of_value = function
  | Int n -> Json.Num (float_of_int n)
  | Float v -> Json.Num v

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema_name);
      ("version", Json.Num (float_of_int schema_version));
      ( "git_rev",
        match t.git_rev with Some r -> Json.Str r | None -> Json.Null );
      ("ocaml_version", Json.Str t.ocaml_version);
      ("config", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.config));
      ( "times_ns",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) t.times_ns) );
      ("metrics", Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) t.metrics));
    ]

let to_string t = Json.to_string ~indent:2 (to_json t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* JSON decoding *)

let ( let* ) r f = Result.bind r f

let require what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "snapshot: missing or ill-typed %s" what)

let value_of_json = function
  | Json.Num v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Ok (Int (int_of_float v))
    else Ok (Float v)
  | _ -> Error "snapshot: metric value is not a number"

let rec map_fields f = function
  | [] -> Ok []
  | (k, v) :: rest ->
    let* v = f k v in
    let* rest = map_fields f rest in
    Ok ((k, v) :: rest)

let of_json j =
  let* schema =
    require "schema" (Option.bind (Json.member "schema" j) Json.to_str)
  in
  if schema <> schema_name then
    Error (Printf.sprintf "snapshot: schema is %S, expected %S" schema
             schema_name)
  else
    let* version =
      require "version" (Option.bind (Json.member "version" j) Json.to_float)
    in
    if int_of_float version <> schema_version then
      Error
        (Printf.sprintf "snapshot: version %d unsupported (expected %d)"
           (int_of_float version) schema_version)
    else
      let git_rev = Option.bind (Json.member "git_rev" j) Json.to_str in
      let* ocaml_version =
        require "ocaml_version"
          (Option.bind (Json.member "ocaml_version" j) Json.to_str)
      in
      let* config_fields =
        require "config" (Option.bind (Json.member "config" j) Json.to_obj)
      in
      let* config =
        map_fields
          (fun k v -> require ("config." ^ k) (Json.to_str v))
          config_fields
      in
      let* time_fields =
        require "times_ns"
          (Option.bind (Json.member "times_ns" j) Json.to_obj)
      in
      let* times_ns =
        map_fields
          (fun k v -> require ("times_ns." ^ k) (Json.to_float v))
          time_fields
      in
      let* metric_fields =
        require "metrics" (Option.bind (Json.member "metrics" j) Json.to_obj)
      in
      (* Schema-1 snapshots recorded before the registry kept only
         counters also hold histogram summaries, written as objects;
         those entries are skipped, so such a snapshot still loads. *)
      let metric_fields =
        List.filter
          (fun (_, v) -> match v with Json.Obj _ -> false | _ -> true)
          metric_fields
      in
      let* metrics = map_fields (fun _ v -> value_of_json v) metric_fields in
      Ok { git_rev; ocaml_version; config; metrics; times_ns }

let of_string s =
  let* j = Json.of_string s in
  of_json j

let write_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))
  with Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Comparison *)

type delta = {
  d_name : string;
  d_time : bool;
  d_base : float option;
  d_cur : float option;
}

let scalar_of_value = function
  | Int n -> float_of_int n
  | Float v -> v

let diff ~base cur =
  let keys l = List.map fst l in
  let all_time_keys =
    List.sort_uniq compare (keys base.times_ns @ keys cur.times_ns)
  in
  let all_metric_keys =
    List.sort_uniq compare (keys base.metrics @ keys cur.metrics)
  in
  List.map
    (fun k ->
      {
        d_name = k;
        d_time = true;
        d_base = List.assoc_opt k base.times_ns;
        d_cur = List.assoc_opt k cur.times_ns;
      })
    all_time_keys
  @ List.map
      (fun k ->
        let scalar side = Option.map scalar_of_value (List.assoc_opt k side) in
        {
          d_name = k;
          d_time = Metrics.is_time_name k;
          d_base = scalar base.metrics;
          d_cur = scalar cur.metrics;
        })
      all_metric_keys

type regression = {
  r_metric : string;
  r_base : float;
  r_cur : float;
  r_ratio : float;
}

let gate ?(max_ratio = 1.5) ?(min_abs_ns = 1e6) ?(counter_max_ratio = 1.1)
    ?(min_abs_count = 1000.) ~base cur =
  let check ~ratio_limit ~abs_floor name b c acc =
    if b > 0. && c > b *. ratio_limit && c -. b > abs_floor then
      { r_metric = name; r_base = b; r_cur = c; r_ratio = c /. b } :: acc
    else acc
  in
  let times =
    List.fold_left
      (fun acc (name, c) ->
        match List.assoc_opt name base.times_ns with
        | Some b ->
          check ~ratio_limit:max_ratio ~abs_floor:min_abs_ns name b c acc
        | None -> acc)
      [] cur.times_ns
  in
  let counters =
    List.fold_left
      (fun acc (name, v) ->
        match (v, List.assoc_opt name base.metrics) with
        | Int c, Some (Int b) ->
          check ~ratio_limit:counter_max_ratio ~abs_floor:min_abs_count name
            (float_of_int b) (float_of_int c) acc
        | _ -> acc)
      [] cur.metrics
  in
  List.sort (fun a b -> compare b.r_ratio a.r_ratio) (times @ counters)

let render_diff ~base cur =
  let deltas = diff ~base cur in
  let fmt time = function
    | None -> "-"
    | Some v -> Metrics.pp_quantity ~time v
  in
  let pct b c =
    match (b, c) with
    | Some b, Some c when b > 0. ->
      let p = (c -. b) /. b *. 100. in
      if Float.abs p < 0.005 then "=" else Printf.sprintf "%+.1f%%" p
    | _ -> "-"
  in
  let rows =
    [ "metric"; "base"; "new"; "delta" ]
    :: List.map
         (fun d ->
           [ d.d_name; fmt d.d_time d.d_base; fmt d.d_time d.d_cur;
             pct d.d_base d.d_cur ])
         deltas
  in
  Metrics.render_table rows

(* In-memory span recorder for the traced run.

   A span wraps one call from the benchmark into a layer's public
   function.  Spans nest strictly (one domain, call structure), so a
   span's self time is its duration minus the durations of its direct
   children, accumulated as each span closes.  With tracing off,
   [with_span] is one branch and a call. *)

type span = {
  name : string;
  start : int64;
  stop : int64;
  parent : int;  (** index of the enclosing span, -1 at top level *)
  op : int;  (** op id the span ran under, -1 outside any op *)
}

let enabled = ref false
let current_op = ref (-1)

(* Chrome output keeps at most this many spans; self times keep counting
   past it. *)
let max_kept = 2_000_000

let kept : span list ref = ref []
let n_kept = ref 0
let n_started = ref 0

(* Open spans: (index, child time so far). *)
let stack : (int * int64 ref) list ref = ref []

let self_by_name : (string, int64 ref) Hashtbl.t = Hashtbl.create 32
let self_by_op : (int, int64 ref) Hashtbl.t = Hashtbl.create 256

let bump tbl key ns =
  match Hashtbl.find_opt tbl key with
  | Some r -> r := Int64.add !r ns
  | None -> Hashtbl.replace tbl key (ref ns)

let reset () =
  kept := [];
  n_kept := 0;
  n_started := 0;
  stack := [];
  Hashtbl.reset self_by_name;
  Hashtbl.reset self_by_op

let set_op id = current_op := id

let with_span name f =
  if not !enabled then f ()
  else begin
    let index = !n_started in
    incr n_started;
    let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
    let children = ref 0L in
    stack := (index, children) :: !stack;
    let start = Obs.Clock.now_ns () in
    let close () =
      let stop = Obs.Clock.now_ns () in
      let dur = Int64.sub stop start in
      stack := List.tl !stack;
      (match !stack with
       | (_, c) :: _ -> c := Int64.add !c dur
       | [] -> ());
      let self = Int64.sub dur !children in
      bump self_by_name name self;
      bump self_by_op !current_op self;
      if !n_kept < max_kept then begin
        incr n_kept;
        kept := { name; start; stop; parent; op = !current_op } :: !kept
      end
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let self_ns name =
  match Hashtbl.find_opt self_by_name name with
  | Some r -> Int64.to_float !r
  | None -> 0.

let total_self_ns () =
  Hashtbl.fold (fun _ r acc -> acc +. Int64.to_float !r) self_by_name 0.

let op_self_ns op =
  match Hashtbl.find_opt self_by_op op with
  | Some r -> Int64.to_float !r
  | None -> 0.

let names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) self_by_name []
  |> List.sort String.compare

(* Chrome trace-event JSON: one complete ("X") event per span, on one
   lane, with the op id and parent index as arguments. *)
let write_chrome path =
  let spans = List.rev !kept in
  let origin = match spans with s :: _ -> s.start | [] -> 0L in
  let us t = Int64.to_float (Int64.sub t origin) /. 1000. in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
         \"dur\":%.3f,\"args\":{\"op\":%d,\"parent\":%d}}"
        (Obs.Json.escape s.name) (us s.start)
        (Int64.to_float (Int64.sub s.stop s.start) /. 1000.)
        s.op s.parent)
    spans;
  output_string oc "\n]}\n";
  close_out oc

module Json = Obs.Json

(* ------------------------------------------------------------------ *)
(* Framing: "<decimal byte length>\n<payload>\n".  Length-prefixed so a
   frame may contain newlines (inline netlist sources do), trailing
   newline so the stream stays greppable and a human can eyeball it. *)

exception Framing_error of string

let write_frame oc payload =
  output_string oc (string_of_int (String.length payload));
  output_char oc '\n';
  output_string oc payload;
  output_char oc '\n';
  flush oc

let max_frame_bytes = 16 * 1024 * 1024

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> None
  | header -> (
    match int_of_string_opt (String.trim header) with
    | None ->
      raise (Framing_error (Printf.sprintf "bad frame header %S" header))
    | Some len when len < 0 || len > max_frame_bytes ->
      raise (Framing_error (Printf.sprintf "bad frame length %d" len))
    | Some len ->
      let buf = Bytes.create len in
      (try really_input ic buf 0 len
       with End_of_file ->
         raise (Framing_error "truncated frame payload"));
      (match input_char ic with
       | '\n' -> ()
       | _ -> raise (Framing_error "missing frame terminator")
       | exception End_of_file ->
         raise (Framing_error "missing frame terminator"));
      Some (Bytes.to_string buf))

(* ------------------------------------------------------------------ *)
(* Requests *)

type op =
  | Partition of { backend : Oneshot.backend; deadline_s : float option }
  | Weighted of {
      lambda : float;
      family : Reliability.Family.t;
      trials : int;
      seed : int;
    }

type request = {
  id : string;
  op : op;
  design : string option;
  design_text : string option;
  inputs : int;
  outputs : int;
}

type inbound =
  | Request of request
  | Drain
  | Invalid of { id : string; reason : string }

let default_trials = 8
let default_seed = 1
let max_trials = 10_000

let str_field name j = Option.bind (Json.member name j) Json.to_str

let num_field name j = Option.bind (Json.member name j) Json.to_float

(* The largest magnitude up to which a float holds every integer. *)
let max_exact = 1 lsl 53

(* An integer field in [lo, hi], or [default] when absent.  Anything
   else is rejected with a reason that names the field: a fraction
   would be truncated silently, a pin count below 1 only fails once the
   search starts, a seed beyond 2^53 is not the number the client sent,
   and an unbounded trial count lets a single frame occupy the resident
   server indefinitely. *)
let int_field name ~default ?(lo = -max_exact) ?(hi = max_exact) j =
  match Json.member name j with
  | None -> Ok default
  | Some (Json.Num v)
    when Float.is_integer v && v >= float_of_int lo && v <= float_of_int hi ->
    Ok (int_of_float v)
  | Some v ->
    Error
      (Printf.sprintf "%s must be an integer in %d..%d (got %s)" name lo hi
         (Json.to_string v))

let ( let* ) = Result.bind

let parse_request json =
  match Json.of_string json with
  | Error e -> Invalid { id = "?"; reason = "bad JSON: " ^ e }
  | Ok j -> (
    let id = Option.value (str_field "id" j) ~default:"?" in
    let parsed =
      let* op =
        match Option.value (str_field "op" j) ~default:"partition" with
        | "drain" -> Ok None
        | "partition" ->
          let* backend =
            Oneshot.backend_of_string
              (Option.value (str_field "backend" j) ~default:"paredown")
          in
          let deadline_s = num_field "deadline_s" j in
          Ok (Some (Partition { backend; deadline_s }))
        | "weighted" ->
          let* family =
            Reliability.Family.of_string
              (Option.value (str_field "family" j)
                 ~default:"brownout:0.3@40,110,180")
          in
          let* trials =
            int_field "trials" ~default:default_trials ~lo:1 ~hi:max_trials j
          in
          let* seed = int_field "seed" ~default:default_seed j in
          let lambda = Option.value (num_field "lambda" j) ~default:1.0 in
          Ok (Some (Weighted { lambda; family; trials; seed }))
        | other -> Error (Printf.sprintf "unknown op %S" other)
      in
      match op with
      | None -> Ok Drain
      | Some op ->
        let* inputs = int_field "inputs" ~default:2 ~lo:1 j in
        let* outputs = int_field "outputs" ~default:2 ~lo:1 j in
        Ok
          (Request
             {
               id;
               op;
               design = str_field "design" j;
               design_text = str_field "design_text" j;
               inputs;
               outputs;
             })
    in
    match parsed with
    | Ok inbound -> inbound
    | Error reason -> Invalid { id; reason })

let render_request r =
  let base =
    [ ("id", Json.Str r.id) ]
    @ (match r.design with Some d -> [ ("design", Json.Str d) ] | None -> [])
    @ (match r.design_text with
      | Some t -> [ ("design_text", Json.Str t) ]
      | None -> [])
    @ [
        ("inputs", Json.Num (float_of_int r.inputs));
        ("outputs", Json.Num (float_of_int r.outputs));
      ]
  in
  let op_fields =
    match r.op with
    | Partition { backend; deadline_s } ->
      [ ("op", Json.Str "partition");
        ("backend", Json.Str (Oneshot.backend_to_string backend)) ]
      @ (match deadline_s with
        | Some d -> [ ("deadline_s", Json.Num d) ]
        | None -> [])
    | Weighted { lambda; family; trials; seed } ->
      [
        ("op", Json.Str "weighted");
        ("lambda", Json.Num lambda);
        ("family", Json.Str (Reliability.Family.to_string family));
        ("trials", Json.Num (float_of_int trials));
        ("seed", Json.Num (float_of_int seed));
      ]
  in
  Json.to_string (Json.Obj (op_fields @ base))

let drain_frame = Json.to_string (Json.Obj [ ("op", Json.Str "drain") ])

(* ------------------------------------------------------------------ *)
(* Responses *)

type status = Ok_ | Deadline_expired | Rejected | Error_

let status_to_string = function
  | Ok_ -> "ok"
  | Deadline_expired -> "deadline_expired"
  | Rejected -> "rejected"
  | Error_ -> "error"

type cache_disposition = Hit | Miss | Uncached

let cache_to_string = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Uncached -> "uncached"

type response = {
  r_id : string;
  status : status;
  cache : cache_disposition;
  output : string;  (** the one-shot report, or the rejection/error reason *)
  work : (string * Json.t) list;
  elapsed_ns : Json.t;  (** [Null] under PAREDOWN_STABLE_TIMES *)
}

let render_response r =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str r.r_id);
         ("status", Json.Str (status_to_string r.status));
         ("cache", Json.Str (cache_to_string r.cache));
         ("output", Json.Str r.output);
         ("work", Json.Obj r.work);
         ("elapsed_ns", r.elapsed_ns);
       ])

let parse_response json =
  match Json.of_string json with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j -> (
    match
      ( str_field "id" j,
        str_field "status" j,
        str_field "cache" j,
        str_field "output" j )
    with
    | Some r_id, Some status, Some cache, Some output ->
      let status =
        match status with
        | "ok" -> Ok_
        | "deadline_expired" -> Deadline_expired
        | "rejected" -> Rejected
        | _ -> Error_
      in
      let cache =
        match cache with "hit" -> Hit | "miss" -> Miss | _ -> Uncached
      in
      let work =
        match Option.bind (Json.member "work" j) Json.to_obj with
        | Some fields -> fields
        | None -> []
      in
      let elapsed_ns =
        Option.value (Json.member "elapsed_ns" j) ~default:Json.Null
      in
      Ok { r_id; status; cache; output; work; elapsed_ns }
    | _ -> Error "response missing id/status/cache/output")

type summary = {
  requests : int;
  hits : int;
  misses : int;
  rejected : int;
  deadline_expired : int;
  errors : int;
  cache_entries : int;
  evictions : int;
}

let render_summary s =
  Json.to_string
    (Json.Obj
       [
         ("summary", Json.Bool true);
         ("requests", Json.Num (float_of_int s.requests));
         ("cache_hits", Json.Num (float_of_int s.hits));
         ("cache_misses", Json.Num (float_of_int s.misses));
         ("rejected", Json.Num (float_of_int s.rejected));
         ("deadline_expired", Json.Num (float_of_int s.deadline_expired));
         ("errors", Json.Num (float_of_int s.errors));
         ("cache_entries", Json.Num (float_of_int s.cache_entries));
         ("evictions", Json.Num (float_of_int s.evictions));
       ])

let is_summary json =
  match Json.of_string json with
  | Ok j -> (
    match Json.member "summary" j with Some (Json.Bool true) -> true | _ -> false)
  | Error _ -> false

let summary_line json =
  match Json.of_string json with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j ->
    let get name =
      match Option.bind (Json.member name j) Json.to_float with
      | Some f -> int_of_float f
      | None -> 0
    in
    Ok
      (Printf.sprintf
         "requests=%d cache_hits=%d cache_misses=%d rejected=%d \
          deadline_expired=%d errors=%d cache_entries=%d evictions=%d"
         (get "requests") (get "cache_hits") (get "cache_misses")
         (get "rejected") (get "deadline_expired") (get "errors")
         (get "cache_entries") (get "evictions"))

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

let non_negative v = Json.float ~lo:0. v
let default_trials = 8
let default_seed = 1
let max_trials = 10_000
let trial_count v = Json.int ~lo:1 ~hi:max_trials v
let pin_count v = Json.int ~lo:1 v

(* A family is a string the family parser accepts; [field_or] then
   names the field in either reader's error. *)
let family v = Result.bind (Json.string v) Reliability.Family.of_string
let default_family =
  Reliability.Family.Brownout { rate = 0.3; ticks = [ 40; 110; 180 ] }

let ( let* ) = Result.bind

(* The ranges are why: a fraction would be lost silently, a pin count
   below 1 only fails once the search starts, a seed beyond 2^53 is not
   the number the client sent, and an unbounded trial count lets a
   single frame occupy the resident server indefinitely. *)
let parse_request json =
  match Json.of_string json with
  | Error e -> Invalid { id = "?"; reason = "bad JSON: " ^ e }
  | Ok j -> (
    let open Json in
    let id = field_or "id" ~default:"?" string j in
    let parsed =
      let* id = id in
      let* op = field_or "op" ~default:"partition" string j in
      let* op =
        match op with
        | "drain" -> Ok None
        | "partition" ->
          let* backend = field_or "backend" ~default:"paredown" string j in
          let* backend = Oneshot.backend_of_string backend in
          let* deadline_s = field_opt "deadline_s" non_negative j in
          Ok (Some (Partition { backend; deadline_s }))
        | "weighted" ->
          let* family = field_or "family" ~default:default_family family j in
          let* trials =
            field_or "trials" ~default:default_trials trial_count j
          in
          let* seed = field_or "seed" ~default:default_seed int j in
          let* lambda = field_or "lambda" ~default:1.0 non_negative j in
          Ok (Some (Weighted { lambda; family; trials; seed }))
        | other -> Error (Printf.sprintf "unknown op %S" other)
      in
      match op with
      | None -> Ok Drain
      | Some op ->
        let* design = field_opt "design" string j in
        let* design_text = field_opt "design_text" string j in
        let* inputs = field_or "inputs" ~default:2 pin_count j in
        let* outputs = field_or "outputs" ~default:2 pin_count j in
        Ok (Request { id; op; design; design_text; inputs; outputs })
    in
    match parsed with
    | Ok inbound -> inbound
    | Error reason -> Invalid { id = Result.value id ~default:"?"; reason })

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

let status_of_string = function
  | "ok" -> Ok_
  | "deadline_expired" -> Deadline_expired
  | "rejected" -> Rejected
  | _ -> Error_

let cache_of_string = function
  | "hit" -> Hit
  | "miss" -> Miss
  | _ -> Uncached

let parse_response json =
  match Json.of_string json with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j ->
    let open Json in
    let* r_id = field "id" string j in
    let* status = field "status" string j in
    let* cache = field "cache" string j in
    let* output = field "output" string j in
    let* work = field_or "work" ~default:[] (obj any) j in
    let* elapsed_ns = field_or "elapsed_ns" ~default:Null any j in
    Ok
      {
        r_id;
        status = status_of_string status;
        cache = cache_of_string cache;
        output;
        work;
        elapsed_ns;
      }

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
  | Ok j -> Json.field "summary" Json.bool j = Ok true
  | Error _ -> false

let summary_line json =
  match Json.of_string json with
  | Error e -> Error ("bad JSON: " ^ e)
  | Ok j ->
    let get name = Json.field_or name ~default:0 Json.int j in
    let* requests = get "requests" in
    let* hits = get "cache_hits" in
    let* misses = get "cache_misses" in
    let* rejected = get "rejected" in
    let* deadline_expired = get "deadline_expired" in
    let* errors = get "errors" in
    let* cache_entries = get "cache_entries" in
    let* evictions = get "evictions" in
    Ok
      (Printf.sprintf
         "requests=%d cache_hits=%d cache_misses=%d rejected=%d \
          deadline_expired=%d errors=%d cache_entries=%d evictions=%d"
         requests hits misses rejected deadline_expired errors cache_entries
         evictions)

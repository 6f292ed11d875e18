type phase = Begin | End | Instant | Thread_name

type event = {
  ph : phase;
  name : string;
  tid : int;
  ts_us : float;
  args : (string * string) list;
}

(* JSON string escaping, shared with the snapshot writer so the full
   RFC 8259 set (every control character 0x00-0x1f, backslash, quote)
   lives in exactly one place — see the property test in
   test/test_obs.ml that round-trips arbitrary names through the
   parser. *)
let escape = Json.escape

let add_args buf = function
  | [] -> ()
  | args ->
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf
          (Printf.sprintf "\"%s\":\"%s\"" (escape k) (escape v)))
      args;
    Buffer.add_char buf '}'

(* All events share pid 1; a thread-name metadata event carries the
   lane's label as its one argument. *)
let add_event buf { ph; name; tid; ts_us; args } =
  let ph, name, args, extra =
    match ph with
    | Begin -> ("B", name, args, "")
    | End -> ("E", name, args, "")
    | Instant -> ("i", name, args, ",\"s\":\"t\"")
    | Thread_name -> ("M", "thread_name", [ ("name", name) ], "")
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":\"%s\",\"cat\":\"obs\",\"ph\":\"%s\",\
                     \"ts\":%.3f,\"pid\":1,\"tid\":%d%s" (escape name) ph
       ts_us tid extra);
  add_args buf args;
  Buffer.add_char buf '}'

let to_string events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf e)
    events;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let of_spans spans =
  List.map
    (fun (s : Journal.span) ->
      {
        ph = (if s.begins then Begin else End);
        name = s.name;
        tid = s.lane + 1;
        ts_us = Clock.ns_to_us s.ts_ns;
        args = s.args;
      })
    spans

type sink = {
  start_span : name:string -> args:(string * string) list -> ts_ns:int64 -> unit;
  end_span : name:string -> ts_ns:int64 -> unit;
  instant : name:string -> args:(string * string) list -> ts_ns:int64 -> unit;
  flush : unit -> unit;
}

let null = {
  start_span = (fun ~name:_ ~args:_ ~ts_ns:_ -> ());
  end_span = (fun ~name:_ ~ts_ns:_ -> ());
  instant = (fun ~name:_ ~args:_ ~ts_ns:_ -> ());
  flush = ignore;
}

let current = ref null
let nesting = ref 0

let set_sink sink =
  !current.flush ();
  current := sink

let reset () = set_sink null

let enabled () = !current != null

let depth () = !nesting

let with_span ?(args = []) name f =
  let sink = !current in
  if sink == null then f ()
  else begin
    sink.start_span ~name ~args ~ts_ns:(Clock.now_ns ());
    incr nesting;
    let finish () =
      decr nesting;
      sink.end_span ~name ~ts_ns:(Clock.now_ns ())
    in
    match f () with
    | result -> finish (); result
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let instant ?(args = []) name =
  let sink = !current in
  if sink != null then sink.instant ~name ~args ~ts_ns:(Clock.now_ns ())

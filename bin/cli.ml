open Cmdliner

let at_least_conv lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is below the minimum %d" n lo))
    | None -> Error (`Msg (Printf.sprintf "invalid count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

(* A value under one of the frame decoder's rules, so the CLI admits
   exactly the values a served request may carry. *)
let decoded_conv ~rule reader printer =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg ("is not a number: " ^ s))
    | Some v -> (
      match reader (Obs.Json.Num v) with
      | Ok v -> Ok v
      | Error _ -> Error (`Msg (Printf.sprintf "must be %s: %s" rule s)))
  in
  Arg.conv (parse, printer)

(* An unbounded trial count would let a single command run for hours. *)
let trials_conv =
  decoded_conv Service.Protocol.trial_count Format.pp_print_int
    ~rule:
      (Printf.sprintf "a whole number in 1..%d" Service.Protocol.max_trials)

let pins_conv =
  decoded_conv Service.Protocol.pin_count Format.pp_print_int
    ~rule:"a whole number >= 1"

let non_negative_conv =
  decoded_conv Service.Protocol.non_negative (Arg.conv_printer Arg.float)
    ~rule:"a finite number >= 0"

let family_conv =
  let parse s =
    match Reliability.Family.of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    ( parse,
      fun ppf f -> Format.pp_print_string ppf (Reliability.Family.to_string f)
    )

(* A drop rate is the R of a drop:R family, so it gets exactly that
   family's check (the prefix fixes the kind parsed). *)
let rate_conv =
  let parse s =
    match Reliability.Family.of_string ("drop:" ^ s) with
    | Ok (Reliability.Family.Drop { rate }) -> Ok rate
    | Ok (Chaos _ | Brownout _) -> assert false
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* ------------------------------------------------------------------ *)
(* Artifacts *)

type artifacts = { journal : string option; flight_record : string option }

let artifacts_term =
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Record the search provenance journal (typed decision \
                   events, JSONL) to $(docv); query it afterwards with \
                   $(b,paredown explain) (see doc/provenance.md).")
  in
  let flight_record =
    Arg.(value & opt (some string) None
         & info [ "flight-record" ] ~docv:"FILE"
             ~doc:"Arm the flight recorder: keep a ring of the last 4096 \
                   decision events and dump a post-mortem JSON bundle \
                   (journal tail, metrics snapshot, git rev) to $(docv) \
                   on deadline expiry, a simulation event-limit, or a \
                   failed verification.")
  in
  Term.(
    const (fun journal flight_record -> { journal; flight_record })
    $ journal $ flight_record)

let cannot_write what msg =
  Printf.eprintf "paredown: cannot write %s: %s\n" what msg;
  exit 2

(* Open the file now, so a bad path fails before any work; the writer
   renders and writes it at most once. *)
let artifact what start = function
  | None -> ignore
  | Some path ->
    let oc = try open_out path with Sys_error msg -> cannot_write what msg in
    let render = start () in
    let written = ref false in
    fun () ->
      if not !written then begin
        written := true;
        let text, events = render () in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc text);
        Printf.eprintf "%s: %d events written to %s\n" what events path
      end

let with_artifacts ?trace a f =
  let write_trace =
    artifact "trace"
      (fun () ->
        Obs.Journal.start_spans ();
        fun () ->
          let spans = Obs.Journal.stop_spans () in
          (Obs.Chrome.to_string (Obs.Chrome.of_spans spans), List.length spans))
      trace
  in
  let write_journal =
    artifact "journal"
      (fun () ->
        let j = Obs.Journal.install () in
        fun () -> (Obs.Journal.to_jsonl j, Obs.Journal.total j))
      a.journal
  in
  (* The bundle is written only on a failure, so its path is probed
     now: a run must not lose it silently at the end. *)
  Option.iter
    (fun out ->
      match Service.Cache.writable out with
      | Ok () -> Obs.Journal.arm_post_mortem ~out ()
      | Error msg -> cannot_write "flight record" msg)
    a.flight_record;
  (* [Stdlib.exit] (a failed fuzz sweep or verification exits 1) runs
     no [Fun.protect] finaliser, so the writers also run at exit. *)
  let write () =
    write_trace ();
    write_journal ()
  in
  at_exit write;
  Fun.protect ~finally:write (fun () ->
      try f ()
      with e ->
        Obs.Journal.note_failure (Printexc.to_string e);
        raise e)

(* Types and helpers shared by the four workloads and the harness. *)

(* What an op produced, computed after its timer stopped. *)
type outcome = {
  output : string;  (** canonical output text; digested for the gates *)
  error : string option;  (** a failed op: bad verdict, exception, gate *)
  blocks : int * int;  (** inner blocks (before, after) *)
  tag : string;  (** serve-mixed: the cache disposition; else "" *)
}

(* One op: [run ()] is timed and returns the untimed post-processing. *)
type op = {
  key : string;  (** identifies the op's inputs across passes *)
  run : unit -> unit -> outcome;
}

type sample = {
  s_key : string;
  ns : float;  (** latency *)
  out_digest : string;
  s_error : string option;
  s_blocks : int * int;
  s_tag : string;
}

(* A unit of work: a pass over a fixed op list, or a served batch.
   [busy_ns] is the op time the traced run attributes to layers. *)
type unit_result = { samples : sample list; busy_ns : float }

type instance = {
  warmup : int;  (** units run before the timed window *)
  run_unit : int -> unit_result;
  replay : (unit -> int -> unit_result) option;
      (** serve-mixed only: a fresh in-process replay of the request
          stream, the traced stand-in for the subprocess *)
  input_digest : string;
  extras : unit -> (string * float) list;
      (** workload-specific per-layer values, read after the run *)
  peak_rss_mb : unit -> float;
  finish : unit -> unit;  (** stop subprocesses *)
}

let hex s = Digest.to_hex (Digest.string s)

let error_of_exn e = Some ("exception: " ^ Printexc.to_string e)

(* Set-up gate failures: each fails the run and counts as a failed op. *)
let gate_failures : string list ref = ref []

let gate_fail msg =
  prerr_endline ("e2e: gate failed: " ^ msg);
  gate_failures := msg :: !gate_failures

let time_ns f =
  let t0 = Obs.Clock.now_ns () in
  let v = f () in
  (v, Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0))

(* Time each op, then post-process it outside the timer. *)
let run_ops ops =
  let samples =
    List.mapi
      (fun i op ->
        Spans.set_op i;
        let finish, ns =
          time_ns (fun () ->
              match op.run () with
              | k -> k
              | exception e ->
                let error = error_of_exn e in
                fun () -> { output = ""; error; blocks = (0, 0); tag = "" })
        in
        Spans.set_op (-1);
        let o =
          try finish ()
          with e ->
            { output = ""; error = error_of_exn e; blocks = (0, 0); tag = "" }
        in
        {
          s_key = op.key;
          ns;
          out_digest = hex o.output;
          s_error = o.error;
          s_blocks = o.blocks;
          s_tag = o.tag;
        })
      ops
  in
  { samples; busy_ns = List.fold_left (fun a s -> a +. s.ns) 0. samples }

(* "inner blocks: 14 -> 9 (3 programmable)" -> Some (14, 9) *)
let inner_line report =
  List.find_opt
    (fun l -> String.length l > 13 && String.sub l 0 13 = "inner blocks:")
    (String.split_on_char '\n' report)

let blocks_of_report report =
  match inner_line report with
  | Some l -> (
    try Scanf.sscanf l "inner blocks: %d -> %d" (fun a b -> (a, b))
    with _ -> (0, 0))
  | None -> (0, 0)

(* VmHWM of a process, in MB. *)
let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l ->
        if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else go ()
    in
    let v = go () in
    close_in ic;
    v

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Run a subprocess and capture its stdout; true when it exited 0. *)
let capture_stdout prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr
      Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let buf = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (Buffer.contents buf, status = Unix.WEXITED 0)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let in_process ~warmup ~input_digest ?(extras = fun () -> []) passes =
  {
    warmup;
    run_unit = (fun i -> run_ops (passes i));
    replay = None;
    input_digest;
    extras;
    peak_rss_mb = (fun () -> vm_hwm_mb None);
    finish = ignore;
  }

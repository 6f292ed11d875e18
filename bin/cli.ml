open Cmdliner

let count_conv ~min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is below the minimum %d" n min))
    | None -> Error (`Msg (Printf.sprintf "invalid count %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let trials_conv = count_conv ~min:1
let steps_conv = count_conv ~min:0

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

(* λ and deadlines get the frame decoder's rule for "lambda" and
   "deadline_s", so the CLI admits exactly what a served request may
   carry. *)
let non_negative_conv =
  let parse s =
    match float_of_string_opt s with
    | None -> Error (`Msg ("is not a number: " ^ s))
    | Some v -> (
      match Service.Protocol.non_negative (Obs.Json.Num v) with
      | Ok v -> Ok v
      | Error _ -> Error (`Msg ("must be a finite number >= 0: " ^ s)))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

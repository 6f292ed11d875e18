let now_ns () = Monotonic_clock.now ()

let ns_per_s = 1e9

let elapsed_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. ns_per_s

let ns_to_us ns = Int64.to_float ns /. 1e3

let stable_times () =
  match Sys.getenv_opt "PAREDOWN_STABLE_TIMES" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

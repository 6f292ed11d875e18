let time f =
  let start = Obs.Clock.now_ns () in
  let result = f () in
  (result, Obs.Clock.elapsed_s start)

let time_best_of ~repeats f =
  if repeats < 1 then invalid_arg "Timing.time_best_of: repeats must be >= 1";
  let rec loop best_result best_elapsed remaining =
    if remaining = 0 then (best_result, best_elapsed)
    else
      let result, elapsed = time f in
      if elapsed < best_elapsed then loop result elapsed (remaining - 1)
      else loop best_result best_elapsed (remaining - 1)
  in
  let result, elapsed = time f in
  loop result elapsed (repeats - 1)

let format_seconds s =
  if Obs.Clock.stable_times () then "--"
  else if s < 0.001 then "<1ms"
  else if s < 1.0 then Printf.sprintf "%.2fms" (s *. 1000.)
  else if s < 60.0 then Printf.sprintf "%.2f s" s
  else Printf.sprintf "%.2f min" (s /. 60.)

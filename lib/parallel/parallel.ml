(* [k] contiguous runs of [xs] (fewer when [xs] is shorter), their
   lengths differing by at most one, longest first. *)
let chunks k xs =
  let n = List.length xs in
  let k = min k n in
  let start c = (c * (n / k)) + min c (n mod k) in
  List.init k (fun c ->
      List.filteri (fun i _ -> start c <= i && i < start (c + 1)) xs)

(* A work item that raised inside a journal capture, with the events it
   captured before raising. *)
exception Item_failed of exn * Obs.Journal.buffer

(* Runs [f] over the items on [jobs] domains.  Returns the results by
   index and the lowest failure, if any: every item below it ran. *)
let run_parallel ~jobs f items n =
  let arr = Array.of_list items in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* The failure cell keeps the exception of the LOWEST failing index,
     not whichever worker lost the CAS race last: a failing [--jobs N]
     run must report the same error the sequential run reports, run to
     run and jobs to jobs.  [record] is a CAS-min on the index. *)
  let failure = Atomic.make None in
  let fail_index () =
    match Atomic.get failure with None -> max_int | Some (i, _, _) -> i
  in
  let record i e bt =
    let rec loop () =
      let cur = Atomic.get failure in
      let better = match cur with None -> true | Some (j, _, _) -> i < j in
      if better && not (Atomic.compare_and_set failure cur (Some (i, e, bt)))
      then loop ()
    in
    loop ()
  in
  (* Each index is claimed by exactly one domain (the atomic cursor)
     and written once; Domain.join publishes the writes back to the
     caller, so the plain [results] array needs no further
     synchronisation. *)
  let rec worker () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (* Only items ABOVE the lowest failure so far may be abandoned:
         an item below it must still run, because it could fail with a
         lower index — the one the sequential path would report.  (A
         worker may have claimed a low index before a higher one
         failed; skipping it would let the higher failure win.) *)
      if i < fail_index () then
        (match f i arr.(i) with
         | r -> results.(i) <- Some r
         | exception e -> record i e (Printexc.get_raw_backtrace ()));
      worker ()
    end
  in
  let domains =
    List.init (min jobs n - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join domains;
  (results, Atomic.get failure)

let result = function Some r -> r | None -> assert false

let map ~jobs f items =
  let n = List.length items in
  if jobs <= 1 || n < 2 then List.map f items
  else begin
    (* While capturing, worker-domain journal emissions and spans are
       captured per item and appended in input (seed) order after the
       join, so a [--jobs N] journal is byte-identical to the sequential
       one and each item's spans nest on a lane of their own.  On a
       failure the items below it and the failing item's partial
       capture are appended — what the sequential run had recorded when
       it raised. *)
    let capturing = Obs.Journal.capturing () in
    let results, failure =
      run_parallel ~jobs
        (fun i x ->
          if not capturing then (f x, None)
          else
            match Obs.Journal.capture ~lane:(i + 1) (fun () -> f x) with
            | Ok r, buf -> (r, Some buf)
            | Error (e, bt), buf ->
              Printexc.raise_with_backtrace (Item_failed (e, buf)) bt)
        items n
    in
    let upto = match failure with Some (i, _, _) -> i | None -> n in
    for i = 0 to upto - 1 do
      Option.iter Obs.Journal.append (snd (result results.(i)))
    done;
    match failure with
    | Some (_, Item_failed (e, buf), bt) ->
      Obs.Journal.append buf;
      Printexc.raise_with_backtrace e bt
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.to_list (Array.map (fun r -> fst (result r)) results)
  end

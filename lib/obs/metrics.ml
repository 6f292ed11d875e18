(* Counters are [Atomic] and histograms lock internally, so instrumented
   code running on sweep worker domains ({!Parallel}) accumulates
   exactly: a 2-domain run reports the same totals as a sequential
   one. *)
type counter = {
  c_name : string;
  c_doc : string;
  count : int Atomic.t;
}

type histo = {
  h_name : string;
  h_doc : string;
  h_hist : Histogram.t;
}

type metric =
  | Counter of counter
  | Histo of histo

(* name -> metric; names are unique across both kinds.  The lock
   guards the table itself (registration, iteration); the metrics are
   individually safe to bump without it. *)
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f = Mutex.protect registry_lock f

let kind_name = function
  | Counter _ -> "counter"
  | Histo _ -> "histogram"

let kind_clash fn name m =
  invalid_arg
    (Printf.sprintf "Obs.Metrics.%s: %S is a %s" fn name (kind_name m))

let counter ?(doc = "") name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Counter c) -> c
  | Some m -> kind_clash "counter" name m
  | None ->
    let c = { c_name = name; c_doc = doc; count = Atomic.make 0 } in
    Hashtbl.add registry name (Counter c);
    c

let incr c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n)
let counter_value c = Atomic.get c.count

let histogram ?(doc = "") name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some (Histo h) -> h.h_hist
  | Some m -> kind_clash "histogram" name m
  | None ->
    let h = { h_name = name; h_doc = doc; h_hist = Histogram.create () } in
    Hashtbl.add registry name (Histo h);
    h.h_hist

type value =
  | Count of int
  | Dist of Histogram.summary

type entry = {
  name : string;
  doc : string;
  value : value;
}

let entry_of = function
  | Counter c ->
    { name = c.c_name; doc = c.c_doc; value = Count (Atomic.get c.count) }
  | Histo h ->
    { name = h.h_name; doc = h.h_doc;
      value = Dist (Histogram.summary h.h_hist) }

let snapshot ?(prefix = "") () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name m acc ->
          if String.starts_with ~prefix name then entry_of m :: acc else acc)
        registry [])
  |> List.sort (fun a b -> String.compare a.name b.name)

let find name =
  with_registry @@ fun () ->
  Option.map entry_of (Hashtbl.find_opt registry name)

let reset () =
  with_registry @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c.count 0
      | Histo h -> Histogram.clear h.h_hist)
    registry

(* ------------------------------------------------------------------ *)
(* Scoped (per-phase) readings over the cumulative registry. *)

type baseline =
  | B_count of int
  | B_hist of Histogram.t

let with_scope f =
  let base : (string, baseline) Hashtbl.t =
    with_registry @@ fun () ->
    let base = Hashtbl.create (Hashtbl.length registry) in
    Hashtbl.iter
      (fun name m ->
        let b =
          match m with
          | Counter c -> B_count (Atomic.get c.count)
          | Histo h -> B_hist (Histogram.copy h.h_hist)
        in
        Hashtbl.replace base name b)
      registry;
    base
  in
  let result = f () in
  let entries =
    with_registry (fun () ->
        Hashtbl.fold
          (fun name m acc ->
            let e = entry_of m in
            let e =
              match (m, Hashtbl.find_opt base name) with
              | Counter c, Some (B_count before) ->
                { e with value = Count (Atomic.get c.count - before) }
              | Histo h, Some (B_hist before) ->
                { e with
                  value = Dist (Histogram.summary
                                  (Histogram.diff ~before h.h_hist)) }
              | _, None -> e (* registered inside the scope: full value *)
              | _, Some _ ->
                e (* kind change is impossible (names are sticky) *)
            in
            e :: acc)
          registry [])
    |> List.sort (fun a b -> String.compare a.name b.name)
  in
  (result, entries)

(* ------------------------------------------------------------------ *)
(* Rendering *)

let string_of_value = function
  | Count n -> string_of_int n
  | Dist s ->
    Printf.sprintf "n=%d p50=%g p99=%g" s.Histogram.s_count
      s.Histogram.s_p50 s.Histogram.s_p99

let is_zero = function
  | Count n -> n = 0
  | Dist s -> s.Histogram.s_count = 0

(* Nanosecond quantities (by the [_ns] naming convention) render as
   humanised times; everything else as plain numbers. *)
let is_time_name name = String.ends_with ~suffix:"_ns" name

let pp_quantity ~time v =
  if not time then Printf.sprintf "%g" v
  else if Clock.stable_times () then "--"
  else if v >= 1e9 then Printf.sprintf "%.2fs" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fms" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.2fus" (v /. 1e3)
  else Printf.sprintf "%.0fns" v

let render_table rows =
  (* rows: header :: data; every row has the same arity.  Left-align
     the first column, right-align the rest. *)
  match rows with
  | [] -> ""
  | header :: _ ->
    let arity = List.length header in
    let widths = Array.make arity 0 in
    List.iter
      (List.iteri (fun i cell ->
           widths.(i) <- max widths.(i) (String.length cell)))
      rows;
    let rtrim s =
      let n = ref (String.length s) in
      while !n > 0 && s.[!n - 1] = ' ' do decr n done;
      String.sub s 0 !n
    in
    let line cells =
      rtrim
        (String.concat "  "
           (List.mapi
              (fun i cell ->
                if i = 0 then Printf.sprintf "%-*s" widths.(i) cell
                else Printf.sprintf "%*s" widths.(i) cell)
              cells))
      ^ "\n"
    in
    String.concat "" (List.map line rows)

let render_entries ?(omit_zero = false) entries =
  let entries =
    List.filter (fun e -> not (omit_zero && is_zero e.value)) entries
  in
  let scalars, dists =
    List.partition
      (fun e -> match e.value with Dist _ -> false | _ -> true)
      entries
  in
  let buf = Buffer.create 256 in
  if scalars <> [] then begin
    let cells =
      List.map (fun e -> (e.name, string_of_value e.value, e.doc)) scalars
    in
    let width f =
      List.fold_left (fun w c -> max w (String.length (f c))) 0 cells
    in
    let name_w = width (fun (n, _, _) -> n)
    and value_w = width (fun (_, v, _) -> v) in
    List.iter
      (fun (n, v, d) ->
        Buffer.add_string buf
          (Printf.sprintf "%-*s  %*s%s\n" name_w n value_w v
             (if d = "" then "" else "  " ^ d)))
      cells
  end;
  if dists <> [] then begin
    if scalars <> [] then Buffer.add_char buf '\n';
    Buffer.add_string buf "distributions:\n";
    let header =
      [ "name"; "count"; "mean"; "p50"; "p90"; "p99"; "max" ]
    in
    let rows =
      List.filter_map
        (fun e ->
          match e.value with
          | Dist s ->
            let time = is_time_name e.name in
            let q = pp_quantity ~time in
            Some
              [ e.name; string_of_int s.Histogram.s_count;
                q s.Histogram.s_mean; q s.Histogram.s_p50;
                q s.Histogram.s_p90; q s.Histogram.s_p99;
                q s.Histogram.s_max ]
          | _ -> None)
        dists
    in
    Buffer.add_string buf (render_table (header :: rows))
  end;
  if Buffer.length buf = 0 then "(no metrics recorded)\n"
  else Buffer.contents buf

let to_table ?prefix ?omit_zero () =
  render_entries ?omit_zero (snapshot ?prefix ())

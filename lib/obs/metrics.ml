(* Counters are [Atomic], so instrumented code running on sweep worker
   domains ({!Parallel}) accumulates exactly: a 2-domain run reports the
   same totals as a sequential one. *)
type counter = {
  c_name : string;
  c_doc : string;
  count : int Atomic.t;
}

(* name -> counter.  The lock guards the table itself (registration,
   iteration); the counters are individually safe to bump without it. *)
let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let with_registry f = Mutex.protect registry_lock f

let counter ?(doc = "") name =
  with_registry @@ fun () ->
  match Hashtbl.find_opt registry name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_doc = doc; count = Atomic.make 0 } in
    Hashtbl.add registry name c;
    c

let incr c = Atomic.incr c.count
let add c n = ignore (Atomic.fetch_and_add c.count n)
let counter_value c = Atomic.get c.count

type entry = {
  name : string;
  doc : string;
  value : int;
}

let entry_of c = { name = c.c_name; doc = c.c_doc; value = Atomic.get c.count }

let sorted entries = List.sort (fun a b -> String.compare a.name b.name) entries

let snapshot ?(prefix = "") () =
  with_registry (fun () ->
      Hashtbl.fold
        (fun name c acc ->
          if String.starts_with ~prefix name then entry_of c :: acc else acc)
        registry [])
  |> sorted

let find name =
  with_registry @@ fun () ->
  Option.map entry_of (Hashtbl.find_opt registry name)

let reset () =
  with_registry @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) registry

(* ------------------------------------------------------------------ *)
(* Scoped (per-phase) readings over the cumulative registry. *)

let with_scope f =
  let base : (string, int) Hashtbl.t =
    with_registry @@ fun () ->
    let base = Hashtbl.create (Hashtbl.length registry) in
    Hashtbl.iter
      (fun name c -> Hashtbl.replace base name (Atomic.get c.count))
      registry;
    base
  in
  let result = f () in
  let entries =
    with_registry (fun () ->
        Hashtbl.fold
          (fun name c acc ->
            (* a counter registered inside the scope reads in full *)
            let before = Option.value (Hashtbl.find_opt base name) ~default:0 in
            let e = entry_of c in
            { e with value = e.value - before } :: acc)
          registry [])
    |> sorted
  in
  (result, entries)

(* ------------------------------------------------------------------ *)
(* Rendering *)

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
  let cells =
    List.filter_map
      (fun e ->
        if omit_zero && e.value = 0 then None
        else Some (e.name, string_of_int e.value, e.doc))
      entries
  in
  if cells = [] then "(no metrics recorded)\n"
  else begin
    let width f =
      List.fold_left (fun w c -> max w (String.length (f c))) 0 cells
    in
    let name_w = width (fun (n, _, _) -> n)
    and value_w = width (fun (_, v, _) -> v) in
    String.concat ""
      (List.map
         (fun (n, v, d) ->
           Printf.sprintf "%-*s  %*s%s\n" name_w n value_w v
             (if d = "" then "" else "  " ^ d))
         cells)
  end

let to_table ?prefix ?omit_zero () =
  render_entries ?omit_zero (snapshot ?prefix ())

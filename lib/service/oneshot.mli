(** One request's worth of synthesis, shared verbatim between the
    one-shot CLI and the batch server.

    Byte-identity between [paredown partition D] and a served
    [partition] request is a hard promise of the service (see
    doc/service.md), so the computation dispatch and the report
    rendering live here and {e both} callers go through them — the CLI
    cannot drift from the server because there is only one renderer. *)

module Graph = Netlist.Graph

type backend = Paredown | Exhaustive | Aggregation

val backend_to_string : backend -> string
val backend_of_string : string -> (backend, string) result

val default_deadline_s : float
(** 120 s — the exhaustive budget the CLI has always used. *)

exception Unknown_design of string

val resolve_network :
  ?design:string -> ?design_text:string -> unit -> Graph.t
(** [design_text] (inline netlist source) wins over [design] (library
    name).  Raises {!Unknown_design} on an unknown name and
    [Netlist.Textio.Parse_error] on bad source. *)

val solution_report : Graph.t -> Core.Solution.t -> string
(** Exactly the bytes [paredown partition] prints: the solution, the
    inner-block reduction line, and the cost line. *)

type outcome =
  | Done of {
      solution : Core.Solution.t;
      report : string;
      work : (string * Obs.Json.t) list;
          (** backend-specific effort counters, deterministic per seed *)
    }
  | Expired of {
      solution : Core.Solution.t;
      report : string;
      work : (string * Obs.Json.t) list;
    }
      (** the deadline elapsed before optimality (exhaustive only); the
          best solution found so far rides along — the CLI prints it,
          the server reports it without caching it *)

val partition :
  backend:backend -> shape:Core.Shape.t -> ?deadline_s:float -> Graph.t ->
  outcome
(** Dispatch one partitioning request.  [deadline_s] (default
    {!default_deadline_s}) only binds the exhaustive backend. *)

val weighted :
  ?cache:Reliability.Estimator.cache ->
  lambda:float -> family:Reliability.Family.t -> trials:int -> seed:int ->
  shape:Core.Shape.t -> Graph.t -> outcome
(** The reliability-weighted search of [paredown reliability --show]
    and of served [weighted] requests, on [shape] blocks: header line
    plus {!solution_report}.  Its estimates are memoised in [cache]
    (default: a fresh one), so a caller that passes its own can score
    the returned solution again as a memo hit.  Never [Expired]. *)

(** A block type: its class, port arities, behaviour, and cost.

    Descriptors are immutable and shared; a network node references one
    descriptor.  The behaviour program follows the activation semantics of
    {!Behavior.Ast}: it runs whenever an input packet arrives or one of
    the block's timers expires, and must be idempotent under re-activation
    with unchanged inputs (all catalogue behaviours are written this
    way). *)

type t = private {
  name : string;          (** unique, parseable (e.g. ["and2"], ["delay(10)"]) *)
  kind : Kind.t;
  n_inputs : int;
  n_outputs : int;
  behavior : Behavior.Ast.program;
      (** empty for sensors (driven by stimuli) and outputs (pure sinks) *)
  output_init : Behavior.Ast.value array;
      (** power-on value presented on each output port *)
  cost : float;           (** relative block cost; see {!Cost} *)
}

exception Invalid_descriptor of string

val make :
  name:string ->
  kind:Kind.t ->
  n_inputs:int ->
  n_outputs:int ->
  ?behavior:Behavior.Ast.program ->
  ?output_init:Behavior.Ast.value array ->
  cost:float ->
  unit ->
  t
(** Validates: non-negative arities; behaviour port references within
    arities; [output_init] length equals [n_outputs] (defaults to all
    [Bool false]); behaviour has no free variables.  Raises
    {!Invalid_descriptor} otherwise. *)

val equal : t -> t -> bool
(** Descriptors are equal when their names are equal (names are unique by
    construction in the catalogue). *)

val pp : Format.formatter -> t -> unit

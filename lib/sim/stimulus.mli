(** Stimulus scripts: timed sensor changes driving a simulation. *)

module Graph = Netlist.Graph
module Node_id = Netlist.Node_id

type step = {
  time : int;
  sensor : Node_id.t;
  value : bool;
}

type script = step list

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> script -> unit

val apply : Engine.t -> script -> unit
(** Schedule every step.  Steps may be given in any order; they must all
    lie in the simulated future. *)

val random :
  rng:Prng.t ->
  sensors:Node_id.t list ->
  steps:int ->
  spacing:int ->
  script
(** A reproducible random script: [steps] sensor flips, one every
    [1..spacing] ticks, each toggling a uniformly chosen sensor.  Spacing
    is generous by default so networks settle between changes (the blocks
    "deal with human-scale events").  [spacing] is clamped to at least 1
    (the tightest legal step separation); 0 or negative values therefore
    mean "a flip every tick" rather than an error.  A negative [steps]
    raises [Invalid_argument]. *)

val settled_outputs :
  Engine.t -> script -> (int * (Node_id.t * Behavior.Ast.value) list) list
(** Drive the engine with the script, letting the network fully settle
    after each step, and record the primary-output values at each
    quiescent point: one [(step time, outputs)] entry per step.  This is
    the observation used for equivalence checking. *)

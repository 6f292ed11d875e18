(** Closure compiler for behaviour programs — the one behaviour
    evaluator the library ships.  The simulator ([Sim.Engine]) runs
    every block activation through it, and [Codegen.Verify] steps the
    merged and member machines of its lockstep proofs with it.

    A naive evaluator walks the AST on every activation: each
    expression node is a match-and-dispatch, every variable read is a
    string-keyed [Hashtbl] lookup, and every activation allocates an
    input copy, a timers table, and an outcome record.  The simulator
    activates blocks millions of times per fuzz or Monte-Carlo sweep.

    [compile] lowers a program once: variables become slots in a flat
    [value array], timer indices become compact slots resolved at
    compile time, and the body becomes one [state -> unit] closure with
    no AST left to inspect.  One {!run} then costs a handful of array
    reads and writes.

    Variable slots are fixed per program: the distinct state variables
    first, in order of first declaration (a repeated declaration keeps
    the first slot; the last one's initial value wins), then the
    remaining variables of {!Ast.assigned_variables} (the body-assigned
    ones), in its sorted order.

    Semantics are pinned by the reference tree-walking interpreter in
    test/eval_oracle.ml and preserved exactly, including the messages of
    {!Runtime_error} (raised lazily, when the offending expression or
    statement actually executes), last-write-wins output ports flushed
    in ascending port order, and final per-timer actions flushed in
    ascending raw-timer-index order.  test/test_behavior.ml checks
    random programs against that interpreter directly, and
    test/test_kernel.ml checks whole simulations against the interpreted
    engine built on it. *)

type t
(** Compiled code: immutable and domain-safe, shareable across any
    number of instances and domains.  All per-instance mutability lives
    in {!state}. *)

type state = {
  vars : Ast.value array;
  defined : bool array;
  mutable in_k : int array;
  mutable in_n : int array;
  mutable fired : int;
  out_set : bool array;
  out_val : Ast.value array;
  tmr_act : int array;
  tmr_delay : int array;
}
(** The variable store and activation scratch of one block instance.
    Never share a [state] across engines or domains.

    The type is concrete so that {!run}'s caller can flush the
    activation scratch without going through closures: after [run],
    [out_set.(port)] marks a driven port whose last-written value is
    [out_val.(port)], and [tmr_act.(slot)] is [0] (untouched), [1]
    (set, with delay [tmr_delay.(slot)]) or [2] (cancelled).  The
    store is [vars] by slot (see above); slot [i] holds a value only
    when [defined.(i)].  Treat every field as read-only between
    activations; [in_k]/[in_n] (the int-encoded input latch, see
    {!value_tag}) and [fired] are implementation detail of the compiled
    closures. *)

exception Runtime_error of string
(** Raised on unbound variables, type mismatches, out-of-range ports, or
    a non-positive / non-integer timer delay. *)

val value_tag : Ast.value -> int
(** Int encoding of a value for the latch arrays: [0]/[1] for
    [Bool false]/[Bool true], [2] for [Int] (payload kept separately,
    see {!value_payload}).  Two plain [int array] stores replace one
    boxed store — no write barrier on the simulator's delivery path. *)

val value_payload : Ast.value -> int
(** The [Int] payload of a value under {!value_tag} encoding; [0] for
    booleans (the tag alone identifies them). *)

val value_of_code : int -> int -> Ast.value
(** [value_of_code k n] decodes {!value_tag}/{!value_payload} pairs.
    Boolean results are shared static constants; only [Int] allocates. *)

val compile : Ast.program -> n_outputs:int -> t
(** Compile a program.  Results are memoized (keyed structurally on the
    program and [n_outputs]) so the many instances of one catalog
    descriptor across engines share code; the cache is bounded and
    mutex-guarded, safe under [lib/parallel] domains. *)

val n_timers : t -> int
(** Number of distinct timer indices the program references — the size
    of the per-instance generation table the engine needs. *)

val timer_id : t -> int -> int
(** Raw timer index of a timer slot; slots are assigned in ascending
    raw-index order, so slot order and raw order agree. *)

val fresh_state : t -> state
(** A new instance store: state variables at their declared initial
    values, body-only variables undefined (reading one before its first
    assignment raises {!Runtime_error}). *)

val copy_state : state -> state
(** An independent clone sharing no mutable array with the original:
    running either afterwards leaves the other unchanged.  A latch
    installed by {!bind_inputs} is copied too, so the clone no longer
    sees the caller's later writes to it.  Used by the bounded
    product-state exploration in [Codegen.Verify]. *)

val reset_state : t -> state -> unit
(** Reinitialize in place to the {!fresh_state} store — the brownout
    semantics — without the allocation. *)

val bind_inputs : state -> tags:int array -> payloads:int array -> unit
(** Install a long-lived int-encoded input latch ({!value_tag} tags
    plus {!value_payload} payloads) into the state, for {!run_bound}.
    The caller keeps ownership and mutates the arrays between
    activations; the binding survives {!reset_state}. *)

val run_bound : t -> state -> fired:int -> unit
(** {!run} against the latch installed by {!bind_inputs}, skipping the
    two latch-pointer writes per activation — the engine's inner loop,
    where the latch never changes identity. *)

val run : t -> state -> inputs:Ast.value array -> fired:int -> unit
(** Run the body once against the latched [inputs], leaving the results
    in the scratch fields of [state] (see {!state}).  The caller owns
    the flush: read [out_set]/[out_val] in ascending port order, then
    [tmr_act]/[tmr_delay] in ascending slot order (slots ascend with the
    raw timer index), the canonical order stated above.  This is the
    closure-free inner loop of [Sim.Engine]'s compiled kernel. *)

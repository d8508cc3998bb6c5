(** The MiniC interpreter.

    Executes a program from [main], charging virtual cycles per
    {!Profile.Cost} and recording the observations the dynamic
    design-flow tasks consume.  Deterministic: repeated runs (including
    of instrumented variants) see identical pseudo-random inputs.

    Programs are slot-compiled (see {!Resolve}) and lowered to a
    {e flat register-bytecode VM} (see {!Bytecode} and
    DESIGN.md §14) — dense instruction arrays over frames of three
    register banks (boxed values, unboxed floats, ints; a slot declared
    float or int lives unboxed), with superinstructions inside every
    specialized loop kernel.
    The VM is the one production engine and runs on the calling
    domain.

    The tree walker over the slot IR, kept as {!run_ir}, is the
    reference.  The VM is bit-identical to it in every observable:
    printed output, return value, the full virtual-cycle profile, loop
    stats, error messages and error points.  The test suite asserts
    this.  Both engines start a frame with every slot at its declared
    type's zero, and a non-void function that ends without [return]
    returns its type's zero. *)

(** Result of running a program. *)
type run = {
  profile : Profile.t;
  output : string;  (** everything printed by [print_int]/[print_float] *)
  return_value : Value.t;
}

(** A compiled program: the slot IR plus its register bytecode. *)
type compiled

(** Loops to observe as accelerator-offload candidates: each entry is a
    loop's node id and the variables its extracted kernel would take as
    pointer arguments, in parameter order (aliased variables share one
    first-access record, as aliased arguments do).  Every invocation of
    a tracked loop is one kernel call: its cycle, FLOP and byte deltas
    and, per argument, the first-access transfer bytes and touched
    ranges ({!Profile.kernel_obs}, keyed by the loop's id).  The names
    resolve in the function holding the loop; an id no function holds
    is ignored.  Tracked loops must not nest: one entered while another
    tracked loop runs is not observed.  Tracking changes no other
    observable. *)
type track = (int * string list) list

(** Run [program] from [main].

    @param track loops to observe as offload candidates (default none)
    @param focus an extracted kernel function, named instead of its
      loop: tracks each loop statement of its body, with its pointer
      parameters, in order, as the arguments (added to [track])
    @param fuel statement/iteration budget guarding against hangs
      (default 200 million)
    @raise Value.Runtime_error on runtime faults (out-of-bounds access,
      integer division by zero, fuel exhaustion, missing [main], ...)
    @raise Minic.Typecheck.Type_error on an ill-typed program
      (see {!compile}) *)
val run :
  ?focus:string -> ?track:track -> ?fuel:int -> Minic.Ast.program -> run

(** Compile a program once; the result can be executed many times with
    {!run_vm} without re-resolving or re-compiling.  Three stages:
    type-check, resolve, then lower to bytecode, which takes every type
    from declarations and picks typed instructions and a specialized,
    fused kernel for every innermost loop that fits.  A compiled value
    is never mutated after this returns, so it may be shared across
    domains.
    @raise Minic.Typecheck.Type_error when the program is ill-typed:
      the VM runs well-typed programs only ({!run_ir} runs anything) *)
val compile : Minic.Ast.program -> compiled

(** Lower an already-resolved slot IR with typed instructions and no
    kernels: the one kernel-free entry point.  For tests that run the
    VM on the IR without kernels and compare against {!run_ir}, and for
    the benchmark leg that measures what kernels contribute.
    @raise Minic.Typecheck.Type_error when its source is ill-typed *)
val compile_resolved : Resolve.t -> compiled

(** Run an already-compiled program from [main] through the register
    bytecode VM.  Equivalent to {!run} on the source program. *)
val run_vm : ?track:track -> ?fuel:int -> compiled -> run

(** Run the slot IR through the reference tree walker, ill-typed or
    not.  Profiles, outputs and error points are bit-identical to
    {!run_vm} on a well-typed program; counted
    under the [interp_ir_runs] metric instead of [interp_runs].  Exists
    for bit-identity testing and before/after benchmarking. *)
val run_ir : ?focus:string -> ?track:track -> ?fuel:int -> Resolve.t -> run

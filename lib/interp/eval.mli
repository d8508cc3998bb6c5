(** The MiniC interpreter.

    Executes a program from [main], charging virtual cycles per
    {!Profile.Cost} and recording the observations the dynamic
    design-flow tasks consume.  Deterministic: repeated runs (including
    of instrumented variants) see identical pseudo-random inputs.

    Programs are slot-compiled (see {!Resolve}), optimized (see {!Opt})
    and lowered to a {e flat register-bytecode VM} (see {!Bytecode} and
    DESIGN.md §14) — dense instruction arrays over an integer-register
    frame, with profile-guided superinstructions inside fused loop
    kernels and domain-sharded execution of data-parallel loops.  The
    VM is the one production engine.

    The tree walker over the slot IR, kept as {!run_ir}, is the
    reference.  The VM is bit-identical to it in every observable:
    printed output, return value, the full virtual-cycle profile, loop
    stats, error messages and error points.  The test suite asserts
    this. *)

(** Result of running a program. *)
type run = {
  profile : Profile.t;
  output : string;  (** everything printed by [print_int]/[print_float] *)
  return_value : Value.t;
}

(** A compiled program: the slot IR plus its register bytecode. *)
type compiled

(** Run [program] from [main].

    @param focus name of the kernel function to profile as an
      accelerator-offload candidate (collects {!Profile.kernel_obs})
    @param fuel statement/iteration budget guarding against hangs
      (default 200 million)
    @raise Value.Runtime_error on runtime faults (out-of-bounds access,
      integer division by zero, fuel exhaustion, missing [main], ...) *)
val run : ?focus:string -> ?fuel:int -> Minic.Ast.program -> run

(** Compile a program once; the result can be executed many times with
    {!run_vm} without re-resolving or re-compiling.  The slot IR is
    first optimized by {!Opt.optimize} unless the [PSAFLOW_NO_OPT]
    environment knob disables it.  A compiled value is never mutated
    after this returns, so it may be shared across domains.

    @param vm_profile a {!Profile.t} from a previous run of the same
      program; when given, the bytecode superinstruction selector only
      rewrites loop kernels that were hot in it (see
      {!Bytecode.hot_of_profile}) *)
val compile : ?vm_profile:Profile.t -> Minic.Ast.program -> compiled

(** Compile an already-resolved slot IR without invoking the optimizer
    stage.  The entry point for per-pass bit-identity tests, which
    optimize with an explicit {!Opt.config} and compare against
    {!run_ir} on the raw IR.

    @param vm_hot heat oracle for the bytecode superinstruction
      selector, keyed by fused-loop statement id (default: everything
      hot) *)
val compile_resolved : ?vm_hot:(int -> bool) -> Resolve.t -> compiled

(** Run an already-compiled program from [main] through the register
    bytecode VM.  Equivalent to {!run} on the source program. *)
val run_vm : ?focus:string -> ?fuel:int -> compiled -> run

(** Run the slot IR through the reference tree walker.  Profiles,
    outputs and error points are bit-identical to {!run_vm}; counted
    under the [interp_ir_runs] metric instead of [interp_runs].  Exists
    for bit-identity testing and before/after benchmarking. *)
val run_ir : ?focus:string -> ?fuel:int -> Resolve.t -> run

(** {1 VM execution knobs} *)

(** Worker-domain count for sharded kernel execution.  [None] (the
    default) defers to the [PSAFLOW_VM_DOMAINS] environment knob, and
    past that to [min 8 (Domain.recommended_domain_count ())]. *)
val vm_jobs_override : int option ref

(** Minimum trip count before a shardable kernel is actually split
    across domains; below it the per-domain setup dwarfs the work.
    Tests lower this to force sharding on small inputs. *)
val vm_shard_min : int ref

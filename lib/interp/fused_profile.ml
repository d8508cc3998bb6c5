(** Fused single-pass profiling.

    One interpreter execution per program — the workload size is baked
    into the program source — collects everything the five dynamic
    analyses consume:

    - per-loop cycle totals ({!Profile.loop_stat}, projected by hotspot
      detection — no timer instrumentation needed, because the
      interpreter's loop accounting and the timer wrappers measure the
      same quantity bit-identically);
    - per-loop invocation/iteration observations (trip-count analysis
      and the feature vector);
    - for every tracked loop, the offload observations of the kernel
      extraction would make of it: per-argument touched ranges and
      first-access transfer bytes ({!Profile.kernel_obs}, projected by
      alias, data in/out and feature analysis).  The hotspot is known
      only when the run ends, so the run tracks every loop hotspot
      selection can stop at ({!Analysis.Hotspot.tracked}), and the
      analyses read the chosen loop's record.

    The analyses in [lib/analysis] are pure projections of this record:
    requesting several of them for the same program costs one
    interpreter run, and {!Profile_cache} (filled by
    {!Analysis.Hotspot.fused}, keyed on the program) dedupes the run
    across analysis call sites, flow branches, DSE candidates and
    service jobs process-wide.

    The run behind a fused profile executes on the production engine —
    slot IR lowered to register bytecode with instructions typed by the
    program's declarations and a kernel for every kernel-shaped
    innermost loop ({!Eval.compile}), run by the VM on the calling
    domain.  Specialization and typed lowering preserve bit-identity
    with the reference walker ({!Eval.run_ir}), so the projections are
    unaffected by them — asserted per benchmark and on generated
    programs by the test suite. *)

type t = {
  source : Minic.Ast.program;  (** the program that was executed *)
  run : Eval.run;
}

(** The fused profile of [source] made by [run], a run of it: the
    cached one {!Analysis.Hotspot.fused} makes, or one a test makes. *)
let of_run (source : Minic.Ast.program) (run : Eval.run) : t =
  { source; run }

let profile t = t.run.profile
let output t = t.run.output

(** Whole-program virtual cycles. *)
let total_cycles t = t.run.profile.Profile.cycles

(** Inclusive virtual cycles spent in loop [sid]; [0.] if it never ran. *)
let loop_cycles t sid =
  match Profile.loop_stat_opt t.run.profile sid with
  | Some s -> s.Profile.cycles
  | None -> 0.0

(** Offload observations of tracked loop [loop_sid], when it was
    tracked and actually ran. *)
let kernel_obs t ~loop_sid = Profile.kernel_obs t.run.profile loop_sid

(** Fused single-pass profiling.

    One interpreter execution per distinct [(program, focus)] request —
    the workload size is baked into the program source — collects
    everything the five dynamic analyses consume:

    - per-loop cycle totals ({!Profile.loop_stat}, projected by hotspot
      detection — no timer instrumentation needed, because the
      interpreter's loop accounting and the timer wrappers measure the
      same quantity bit-identically);
    - per-loop invocation/iteration observations (trip-count analysis
      and the feature vector);
    - per-argument touched ranges and first-access transfer bytes
      ({!Profile.kernel_obs}, projected by alias, data in/out and
      feature analysis — only collected when [focus] is set).

    The analyses in [lib/analysis] are pure projections of this record:
    requesting several of them for the same [(program, focus)] costs one
    interpreter run, and the underlying {!Profile_cache} (keyed on the
    same request) dedupes the run across analysis call sites, flow
    branches, DSE candidates and service jobs process-wide.

    The run behind a fused profile executes on the production engine —
    slot IR optimized by {!Opt} (strength reduction and kernel
    specialization), then lowered to register bytecode
    ({!Eval.compile}) and run by the VM on the calling domain.  Every
    optimizer pass preserves bit-identity with the reference walker
    ({!Eval.run_ir}), so the projections are unaffected by which passes
    ran — asserted per benchmark and per pass by the test suite. *)

type t = {
  source : Minic.Ast.program;  (** the program that was executed *)
  focus : string option;  (** kernel under offload observation, if any *)
  run : Eval.run;
}

(** Fused profile of [p]: one (cached) interpreter execution collecting
    every dynamic observation the analyses project.  Pass [~focus] to
    additionally observe a kernel's offload behaviour. *)
let get ?focus (p : Minic.Ast.program) : t =
  { source = p; focus; run = Profile_cache.run ?focus p }

(** Wrap an existing run as a fused profile (tests, replay). *)
let of_run ?focus (source : Minic.Ast.program) (run : Eval.run) : t =
  { source; focus; run }

let profile t = t.run.profile
let output t = t.run.output

(** Whole-program virtual cycles. *)
let total_cycles t = t.run.profile.Profile.cycles

(** Inclusive virtual cycles spent in loop [sid]; [0.] if it never ran. *)
let loop_cycles t sid =
  match Profile.loop_stat_opt t.run.profile sid with
  | Some s -> s.Profile.cycles
  | None -> 0.0

(** Offload observations of the focus kernel, when one was set and was
    actually called. *)
let kernel_obs t = t.run.profile.Profile.kernel

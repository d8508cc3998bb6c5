(** Path Selection Automation strategies.

    {!fig3} implements the paper's example strategy for branch point A
    (Fig. 3) verbatim:

    + if the estimated accelerator transfer time exceeds the hotspot's
      single-thread CPU time, or the arithmetic intensity is below the
      tunable threshold X, offloading cannot pay: select the multi-thread
      CPU branch when the outer loop is parallel, otherwise terminate;
    + if offloading pays and the outer loop is parallel: inner loops
      carrying dependences that are fully unrollable favour pipelined
      FPGA execution; otherwise the GPU's data-parallel execution wins;
    + a non-parallel outer loop maps to the FPGA (pipelining does not
      need a parallel loop).

    The strategy is plain code over the context: swapping in a custom one
    is one [Flow.override_selection] call (see examples/custom_strategy). *)

type decision =
  | Cpu_path
  | Gpu_path
  | Fpga_path
  | No_offload of string

type explanation = {
  transfer_seconds : float;
  cpu_seconds : float;
  transfer_dominates : bool;
  flops_per_byte : float;  (** w.r.t. offload traffic *)
  x_threshold : float;
  compute_bound : bool;
  outer_parallel : bool;
  dependent_inner_loops : bool;
  fully_unrollable : bool;
  decision : decision;
}

let decision_to_string = function
  | Cpu_path -> "multi-thread CPU"
  | Gpu_path -> "CPU+GPU"
  | Fpga_path -> "CPU+FPGA"
  | No_offload r -> "no offload (" ^ r ^ ")"

(** Evaluate the Fig. 3 strategy on a context whose analyses have run. *)
let fig3_explain (ctx : Context.t) : explanation =
  let f = Context.eval_features_exn ctx in
  let transfer_seconds = Devices.Transfer.estimated_seconds f in
  let cpu_seconds = Devices.Cpu_model.reference_seconds f in
  let transfer_dominates = transfer_seconds > cpu_seconds in
  let flops_per_byte = Analysis.Features.offload_intensity f in
  let compute_bound = flops_per_byte > ctx.x_threshold in
  let outer_parallel = f.outer_parallel in
  let dependent_inner_loops = Analysis.Features.has_dependent_inner_loops f in
  let fully_unrollable =
    Analysis.Features.inner_loops_fully_unrollable f
  in
  let decision =
    if transfer_dominates || not compute_bound then
      if outer_parallel then Cpu_path
      else
        No_offload
          "memory-bound hotspot with a sequential outer loop: no target \
           profits"
    else if outer_parallel then
      if dependent_inner_loops && fully_unrollable then Fpga_path
      else Gpu_path
    else Fpga_path
  in
  {
    transfer_seconds;
    cpu_seconds;
    transfer_dominates;
    flops_per_byte;
    x_threshold = ctx.x_threshold;
    compute_bound;
    outer_parallel;
    dependent_inner_loops;
    fully_unrollable;
    decision;
  }

let pp_explanation fmt e =
  Format.fprintf fmt
    "T_data=%.3gs vs T_cpu=%.3gs (%s); FLOPs/B=%.2f vs X=%.2f (%s); outer \
     %s%s -> %s"
    e.transfer_seconds e.cpu_seconds
    (if e.transfer_dominates then "transfer dominates" else "transfer ok")
    e.flops_per_byte e.x_threshold
    (if e.compute_bound then "compute-bound" else "memory-bound")
    (if e.outer_parallel then "parallel" else "sequential")
    (if e.dependent_inner_loops then
       Printf.sprintf ", dependent inner loops (%s)"
         (if e.fully_unrollable then "fully unrollable" else "not unrollable")
     else "")
    (decision_to_string e.decision)

(** Provenance evidence of an explanation: every intermediate test of
    the Fig. 3 decision diamond, as displayable attributes. *)
let evidence_of_explanation (e : explanation) :
    (string * Flow_obs.Attr.value) list =
  [
    ("transfer_seconds", Flow_obs.Attr.Float e.transfer_seconds);
    ("cpu_seconds", Flow_obs.Attr.Float e.cpu_seconds);
    ("transfer_dominates", Flow_obs.Attr.Bool e.transfer_dominates);
    ("flops_per_byte", Flow_obs.Attr.Float e.flops_per_byte);
    ("x_threshold", Flow_obs.Attr.Float e.x_threshold);
    ("compute_bound", Flow_obs.Attr.Bool e.compute_bound);
    ("outer_parallel", Flow_obs.Attr.Bool e.outer_parallel);
    ("dependent_inner_loops", Flow_obs.Attr.Bool e.dependent_inner_loops);
    ("fully_unrollable", Flow_obs.Attr.Bool e.fully_unrollable);
  ]

(** Evidence callback for branch point A: the Fig. 3 facts, or nothing
    when the analyses have not produced features yet (e.g. uninformed
    mode on a context that stopped earlier). *)
let branch_a_evidence (ctx : Context.t) :
    (string * Flow_obs.Attr.value) list =
  try evidence_of_explanation (fig3_explain ctx) with _ -> []

(** The Fig. 3 strategy as a branch-point selection function for branch
    point A with paths named "cpu", "gpu", "fpga". *)
let fig3 (ctx : Context.t) : Flow.selection =
  let e = fig3_explain ctx in
  match e.decision with
  | Cpu_path -> Flow.Paths [ "cpu" ]
  | Gpu_path -> Flow.Paths [ "gpu" ]
  | Fpga_path -> Flow.Paths [ "fpga" ]
  | No_offload reason -> Flow.Stop reason

(* ------------------------------------------------------------------ *)
(* Model-based PSA                                                     *)
(* ------------------------------------------------------------------ *)

(** What a model-based strategy optimises for. *)
type objective = Performance | Monetary_cost | Energy

let objective_to_string = function
  | Performance -> "performance"
  | Monetary_cost -> "cost"
  | Energy -> "energy"

(** Predicted seconds of each target's best device, from quick model
    probes — the paper's "performance estimation" branch-point mechanism
    (Section II-B), cheap enough to run at every branch point because the
    analytic models evaluate in sub-microsecond time.

    Each probe assumes the optimisation tasks its path would apply
    (pinned memory, single precision, intrinsics and shared-memory
    staging on the GPU path; single precision and zero-copy where
    supported on the FPGA path) and runs the device's DSE. *)
let probe_targets (ctx : Context.t) :
    (string * Devices.Simulate.result) list =
  let f = Context.eval_features_exn ctx in
  let kernel = Context.kernel_exn ctx in
  let probe_design target device_id =
    let d =
      Codegen.Design.make
        ~name:("probe_" ^ device_id)
        ~target ~device_id ~program:ctx.program ~kernel ~device_kernel:kernel
    in
    match target with
    | Codegen.Design.Cpu_openmp -> d
    | Codegen.Design.Gpu_hip ->
        {
          d with
          Codegen.Design.single_precision = true;
          pinned_memory = true;
          gpu_intrinsics = true;
          shared_mem = f.inner_read_bytes > 0 || f.gathered_args <> [];
          reductions_removed = f.outer_has_reductions;
        }
    | Codegen.Design.Fpga_oneapi ->
        let fp = Devices.Spec.find_fpga device_id in
        { d with Codegen.Design.single_precision = true;
                 zero_copy = fp.supports_usm }
  in
  let cpu =
    (* the threads sweep's choice alone: probes may run before any
       design exists, so they edit no source *)
    let d = probe_design Codegen.Design.Cpu_openmp "epyc7543" in
    { d with num_threads = (Dse.Sweep.choose Dse.Sweep.threads d f).chosen }
  in
  let gpu device_id =
    let d = probe_design Codegen.Design.Gpu_hip device_id in
    (Dse.Sweep.run Dse.Sweep.blocksize d f).design
  in
  let fpga device_id =
    let d = probe_design Codegen.Design.Fpga_oneapi device_id in
    (Dse.Sweep.run Dse.Sweep.unroll d f).design
  in
  let best path ds =
    let results = List.map (fun d -> Devices.Simulate.run d f) ds in
    match
      List.filter (fun (r : Devices.Simulate.result) -> r.feasible) results
    with
    | [] -> None
    | feasible ->
        Some
          ( path,
            List.fold_left
              (fun (acc : Devices.Simulate.result) (r : Devices.Simulate.result) ->
                if r.seconds < acc.seconds then r else acc)
              (List.hd feasible) (List.tl feasible) )
  in
  List.filter_map Fun.id
    [
      best "cpu" [ cpu ];
      best "gpu" [ gpu "gtx1080ti"; gpu "rtx2080ti" ];
      best "fpga" [ fpga "arria10"; fpga "stratix10" ];
    ]

(** Score of one probed outcome under an objective (lower is better). *)
let score objective (r : Devices.Simulate.result) =
  match objective with
  | Performance -> r.seconds
  | Monetary_cost -> Cost.of_result r
  | Energy -> Devices.Spec.board_watts_of_id r.design.device_id *. r.seconds

(** A model-based PSA strategy for branch point A: probe every target
    with the device models and take the one minimising [objective]
    (default: predicted performance).

    Where Fig. 3 encodes expert heuristics over analysis facts, this
    strategy *predicts each outcome* — the trade-off Section II-B
    discusses between quick heuristics and estimation-based selection,
    and a stepping stone to the ML-based strategies the paper leaves as
    future work. *)
let model_based ?(objective = Performance) (ctx : Context.t) : Flow.selection
    =
  match probe_targets ctx with
  | [] -> Flow.Stop "no target is feasible"
  | probes ->
      let path, _ =
        List.fold_left
          (fun (bp, bs) (p, r) ->
            let s = score objective r in
            if s < bs then (p, s) else (bp, bs))
          ("", infinity)
          (List.map (fun (p, r) -> (p, r)) probes)
      in
      if path = "" then Flow.Stop "no target is feasible"
      else Flow.Paths [ path ]

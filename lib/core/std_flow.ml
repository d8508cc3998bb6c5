(** The implemented PSA-flow of the paper's Fig. 4.

    Target-independent partitioning and analysis tasks feed branch point
    A (mapping, PSA strategy of Fig. 3), whose paths run the
    target-specific code generation and optimisation tasks, branching
    again (B, C) into device-specific optimisation + DSE before
    finalising timed designs.

    Dynamic analyses share one fused profiling pass per program size —
    see {!Minic_interp.Fused_profile}.  The paper's Fig. 4 runs hotspot
    detection first and then instruments the extracted kernel, because
    Artisan rebuilds a binary in between; here the one run of the
    original program tracks every loop hotspot selection can stop at
    ({!Analysis.Hotspot.tracked}), and the kernel analyses read the
    chosen loop's observations from it. *)

open Context

(* ------------------------------------------------------------------ *)
(* Shared kernel preparation (also applied to the secondary-size copy)  *)
(* ------------------------------------------------------------------ *)

exception Flow_error of string

(** Detect, extract and reduction-annotate the hotspot of a program:
    the partitioning prefix of the flow, reused for the secondary
    profiling size.  With [hotspot] given, detection is skipped and its
    loop is extracted instead: node ids are a function of the program,
    so the secondary-size parse of the same source template carries the
    profile-size hotspot under the same id.

    @raise Transforms.Extract.Not_extractable if [hotspot]'s loop is not
      a loop of this program *)
let prepare_kernel ?hotspot (p : Minic.Ast.program) =
  let digest = Minic.Ast.digest p in
  let h =
    match hotspot with
    | Some h -> h
    | None -> (
        match Analysis.Hotspot.detect ~digest p with
        | None -> raise (Flow_error "no hotspot loop found")
        | Some h -> h)
  in
  let ex = Stage_memo.extract ~digest p ~loop_sid:h.loop_sid in
  let program, _ = Stage_memo.reduce ex.program ~kernel:ex.kernel_name in
  (program, ex.kernel_name, h)

(* The {!Minic.Ast.digest} of [p] when the context already has it:
   [p] is its reference program, which every flow's hotspot detection,
   extraction and feature analysis start from. *)
let digest_of ctx p =
  if p == ctx.reference then Some ctx.reference_digest else None

let hotspot_exn ctx =
  match ctx.hotspot with
  | Some h -> h
  | None -> raise (Flow_error "hotspot detection has not run")

(* The hotspot behind [ctx.kernel]: the context's when detection has
   run, else detected afresh on the reference program (a context built
   from {!prepare_kernel}'s program and kernel alone). *)
let features_hotspot ctx =
  match ctx.hotspot with
  | Some h -> h
  | None -> (
      match
        Analysis.Hotspot.detect ~digest:ctx.reference_digest ctx.reference
      with
      | Some h -> h
      | None -> raise (Flow_error "no hotspot loop found"))

(** Compute (and cache) kernel features, extrapolating to the evaluation
    scale when the context carries a secondary profile size.  The
    dynamic fields come from the profiling run of the reference program
    (the one hotspot detection ran on), the static ones from the
    extracted kernel.  Without a hotspot in the context, detection runs
    on the reference program first. *)
let ensure_features (ctx : Context.t) : Context.t =
  match ctx.features with
  | Some _ -> ctx
  | None ->
      let kernel = kernel_exn ctx in
      let h = features_hotspot ctx in
      let features_of source p =
        Analysis.Features.analyze ~source ?source_digest:(digest_of ctx source)
          ~loop_sid:h.loop_sid p ~kernel
      in
      let f1, eval_features =
        match (ctx.secondary, ctx.eval_n) with
        | Some (n2, p2), Some n_eval when ctx.profile_n > 0 ->
            let f1 = features_of ctx.reference ctx.program in
            (* reuse the profile-size hotspot decision on the secondary
               copy (same source template, same loop id): its profiling
               run tracks the same loop.  Falls back to a fresh detection
               if the copy has no loop under that id. *)
            let p2', _, h2 =
              try prepare_kernel ~hotspot:h p2
              with Transforms.Extract.Not_extractable _ -> prepare_kernel p2
            in
            let f2 =
              Analysis.Features.analyze ~source:p2 ~loop_sid:h2.loop_sid p2'
                ~kernel
            in
            ( f1,
              Some
                (Analysis.Extrapolate.features ~n1:ctx.profile_n f1 ~n2 f2
                   ~n:n_eval) )
        | _ ->
            let f1 = features_of ctx.reference ctx.program in
            (f1, Some f1)
      in
      { ctx with features = Some f1; eval_features }

(** Data-movement summary in the form the code generators consume. *)
let data_of_features (f : Analysis.Features.t) : Analysis.Data_inout.t =
  {
    Analysis.Data_inout.kernel = f.kernel;
    calls = f.calls;
    args =
      List.map
        (fun (a : Analysis.Features.arg_feat) ->
          {
            Analysis.Data_inout.name = a.af_name;
            bytes_in = int_of_float (a.af_bytes_in *. float_of_int f.calls);
            bytes_out = int_of_float (a.af_bytes_out *. float_of_int f.calls);
          })
        f.args;
    total_in =
      int_of_float (f.bytes_in_per_call *. float_of_int f.calls);
    total_out =
      int_of_float (f.bytes_out_per_call *. float_of_int f.calls);
    kernel_cycles = f.cpu_cycles_per_call *. float_of_int f.calls;
    kernel_flops =
      int_of_float (f.flops_per_call *. float_of_int f.calls);
  }

let current_exn ctx =
  match ctx.current with
  | Some d -> d
  | None -> raise (Flow_error "no design under construction on this path")

let with_current ctx d = { ctx with current = Some d }

let retarget prefix device_id (d : Codegen.Design.t) =
  { d with device_id; name = prefix ^ device_id }

(* A device-specific Optimisation task: run [sweep] on the current
   design, [retarget]ed to the task's device, keep the swept design and
   its provenance record, and log [describe] of the result. *)
let dse_task name sweep retarget describe =
  Task.make name Task.Optimisation (fun ctx ->
      let d = retarget (current_exn ctx) in
      let r = Dse.Sweep.run sweep d (Context.eval_features_exn ctx) in
      Context.log (describe r)
        (Context.record_decision r.decision (with_current ctx r.design)))

(* ------------------------------------------------------------------ *)
(* Task repository (Fig. 4, left)                                      *)
(* ------------------------------------------------------------------ *)

module Repository = struct
  let identify_hotspot =
    Task.make ~dynamic:true "Identify Hotspot Loops" Task.Analysis_task
      (fun ctx ->
        match
          Analysis.Hotspot.detect ?digest:(digest_of ctx ctx.program)
            ctx.program
        with
        | None -> raise (Flow_error "no hotspot loop found")
        | Some h ->
            logf
              { ctx with hotspot = Some h }
              "hotspot: loop #%d in %s, %.1f%% of runtime" h.loop_sid
              h.func_name (100.0 *. h.share))

  let extract_hotspot =
    Task.make "Hotspot Loop Extraction" Task.Transform (fun ctx ->
        let h = hotspot_exn ctx in
        let ex =
          Stage_memo.extract ?digest:(digest_of ctx ctx.program) ctx.program
            ~loop_sid:h.loop_sid
        in
        logf
          { ctx with program = ex.program; kernel = Some ex.kernel_name }
          "extracted kernel %s(%s)" ex.kernel_name
          (String.concat ", " (List.map snd ex.params)))

  let remove_array_dependency =
    Task.make "Remove Array += Dependency" Task.Transform (fun ctx ->
        let kernel = kernel_exn ctx in
        let program, n = Stage_memo.reduce ctx.program ~kernel in
        logf { ctx with program } "%d loop(s) annotated for reduction removal" n)

  let pointer_analysis =
    Task.make ~dynamic:true "Pointer Analysis" Task.Analysis_task (fun ctx ->
        let ctx = ensure_features ctx in
        let f = features_exn ctx in
        if not f.no_alias then
          raise (Flow_error "kernel pointer arguments alias; cannot offload");
        logf { ctx with alias_ok = Some true } "pointer arguments do not alias")

  let intensity_analysis =
    Task.make "Arithmetic Intensity Analysis" Task.Analysis_task (fun ctx ->
        let ctx = ensure_features ctx in
        let f = Context.eval_features_exn ctx in
        logf ctx "arithmetic intensity: %.2f FLOPs/B (offload traffic), %.2f (static)"
          (Analysis.Features.offload_intensity f)
          f.intensity.Analysis.Intensity.flops_per_byte)

  let data_inout_analysis =
    Task.make ~dynamic:true "Data In/Out Analysis" Task.Analysis_task
      (fun ctx ->
        let ctx = ensure_features ctx in
        let f = Context.eval_features_exn ctx in
        logf ctx "data movement per call: %.3g B in, %.3g B out"
          f.bytes_in_per_call f.bytes_out_per_call)

  let dependence_analysis =
    Task.make "Loop Dependence Analysis" Task.Analysis_task (fun ctx ->
        let ctx = ensure_features ctx in
        let f = features_exn ctx in
        logf ctx "outer loop %s%s"
          (if f.outer_parallel then "parallel" else "sequential")
          (if f.outer_has_reductions then " (with reductions)" else ""))

  let trip_count_analysis =
    Task.make ~dynamic:true "Loop Trip-Count Analysis" Task.Analysis_task
      (fun ctx ->
        let ctx = ensure_features ctx in
        let f = Context.eval_features_exn ctx in
        logf ctx "outer trip count %.0f over %d call(s); %d inner loop(s)"
          f.outer_trip f.calls
          (List.length f.inner_loops))

  (* ---------------- CPU path ---------------- *)

  let generate_openmp =
    Task.make "Generate OpenMP Design" Task.Code_generation (fun ctx ->
        let kernel = kernel_exn ctx in
        match Codegen.Openmp_gen.generate ctx.program ~kernel with
        | d -> with_current ctx d
        | exception Transforms.Omp_pragmas.Not_parallel m ->
            raise (Flow_error ("cannot generate an OpenMP design: " ^ m)))

  let omp_threads_dse =
    dse_task "OMP Num. Threads DSE" Dse.Sweep.threads Fun.id (fun r ->
        Printf.sprintf "threads DSE chose %d threads" r.chosen)

  (* ---------------- GPU path ---------------- *)

  let generate_hip =
    Task.make "Generate HIP Design" Task.Code_generation (fun ctx ->
        let kernel = kernel_exn ctx in
        let ctx = ensure_features ctx in
        let data = data_of_features (features_exn ctx) in
        let d = Codegen.Hip_gen.generate ~data ctx.program ~kernel in
        with_current ctx d)

  let pinned_memory =
    Task.make "Employ HIP Pinned Memory" Task.Transform (fun ctx ->
        with_current ctx (Codegen.Hip_gen.employ_pinned_memory (current_exn ctx)))

  let gpu_sp_math =
    Task.make "Employ SP Math Fns" Task.Transform (fun ctx ->
        let d = current_exn ctx in
        let program =
          Transforms.Sp_math.employ_sp_math d.program ~kernel:d.device_kernel
        in
        with_current ctx { d with Codegen.Design.program })

  let gpu_sp_literals =
    Task.make "Employ SP Numeric Literals" Task.Transform (fun ctx ->
        let d = current_exn ctx in
        let program =
          Transforms.Sp_math.demote_kernel_types
            (Transforms.Sp_math.employ_sp_literals d.program
               ~kernel:d.device_kernel)
            ~kernel:d.device_kernel
        in
        with_current ctx
          (Codegen.Design.note "kernel converted to single precision"
             { d with Codegen.Design.program; single_precision = true }))

  let shared_mem =
    Task.make "Introduce Shared Mem Buf" Task.Transform (fun ctx ->
        with_current ctx (Codegen.Hip_gen.introduce_shared_mem (current_exn ctx)))

  let specialised_math =
    Task.make "Employ Specialised Math Fns" Task.Transform (fun ctx ->
        with_current ctx (Codegen.Hip_gen.employ_intrinsics (current_exn ctx)))

  let blocksize_dse device_id label =
    dse_task (label ^ " Blocksize DSE") Dse.Sweep.blocksize
      (retarget "hip_" device_id) (fun r ->
        Printf.sprintf "%s blocksize DSE chose %d" label r.chosen)

  (* ---------------- FPGA path ---------------- *)

  let generate_oneapi =
    Task.make "Generate oneAPI Design" Task.Code_generation (fun ctx ->
        let kernel = kernel_exn ctx in
        let ctx = ensure_features ctx in
        let data = data_of_features (features_exn ctx) in
        let d = Codegen.Oneapi_gen.generate ~data ctx.program ~kernel in
        with_current ctx d)

  let unroll_fixed =
    Task.make "Unroll Fixed Loops" Task.Transform (fun ctx ->
        with_current ctx (Codegen.Oneapi_gen.unroll_fixed_loops (current_exn ctx)))

  let fpga_sp_math =
    Task.make "Employ SP Math Fns" Task.Transform (fun ctx ->
        let d = current_exn ctx in
        let program =
          Transforms.Sp_math.employ_sp_math d.program ~kernel:d.device_kernel
        in
        with_current ctx { d with Codegen.Design.program })

  let fpga_sp_literals =
    Task.make "Employ SP Numeric Literals" Task.Transform (fun ctx ->
        let d = current_exn ctx in
        let program =
          Transforms.Sp_math.demote_kernel_types
            (Transforms.Sp_math.employ_sp_literals d.program
               ~kernel:d.device_kernel)
            ~kernel:d.device_kernel
        in
        with_current ctx
          (Codegen.Design.note "kernel converted to single precision"
             { d with Codegen.Design.program; single_precision = true }))

  let zero_copy =
    Task.make "Zero-Copy Data Transfer" Task.Transform (fun ctx ->
        let ctx = ensure_features ctx in
        let data = data_of_features (features_exn ctx) in
        with_current ctx
          (Codegen.Oneapi_gen.employ_zero_copy ~data (current_exn ctx)))

  let unroll_dse device_id label =
    dse_task (label ^ " Unroll Until Overmap DSE") Dse.Sweep.unroll
      (retarget "oneapi_" device_id) (fun r ->
        if r.design.synthesizable then
          Printf.sprintf "%s unroll DSE chose factor %d (%d steps)" label
            r.chosen (List.length r.steps)
        else
          Printf.sprintf
            "%s unroll DSE: design overmaps the device even at factor 1 \
             (unsynthesizable)"
            label)

  (* ---------------- finalisation ---------------- *)

  let finalize =
    Task.make "Evaluate Design" Task.Analysis_task (fun ctx ->
        let d = current_exn ctx in
        let f = Context.eval_features_exn ctx in
        let r = Devices.Simulate.run d f in
        let ctx =
          logf ctx "%s: %.4g s, speedup %.1fx%s" d.name r.seconds r.speedup
            (if r.feasible then "" else " (not synthesizable)")
        in
        let ctx =
          match Cost.check_budget ctx r with
          | Cost.Within_budget c when ctx.budget <> None ->
              logf ctx "cost $%.4f within budget" c
          | Cost.Over_budget c -> logf ctx "cost $%.4f OVER budget" c
          | _ -> ctx
        in
        Context.finish r ctx)
end

(* ------------------------------------------------------------------ *)
(* The Fig. 4 flow                                                     *)
(* ------------------------------------------------------------------ *)

open Repository

let target_independent =
  Flow.seq
    (List.map Flow.task
       [
         identify_hotspot;
         extract_hotspot;
         pointer_analysis;
         intensity_analysis;
         data_inout_analysis;
         dependence_analysis;
         trip_count_analysis;
         remove_array_dependency;
       ])

let cpu_path =
  Flow.seq
    [ Flow.task generate_openmp; Flow.task omp_threads_dse; Flow.task finalize ]

let gpu_path ~select_b =
  Flow.seq
    [
      Flow.task generate_hip;
      Flow.task pinned_memory;
      Flow.task gpu_sp_math;
      Flow.task gpu_sp_literals;
      Flow.task shared_mem;
      Flow.task specialised_math;
      Flow.branch "B" ~select:select_b
        [
          ( "gtx1080ti",
            Flow.seq
              [ Flow.task (blocksize_dse "gtx1080ti" "GTX 1080");
                Flow.task finalize ] );
          ( "rtx2080ti",
            Flow.seq
              [ Flow.task (blocksize_dse "rtx2080ti" "RTX 2080");
                Flow.task finalize ] );
        ];
    ]

let fpga_path ~select_c =
  Flow.seq
    [
      Flow.task generate_oneapi;
      Flow.task unroll_fixed;
      Flow.task fpga_sp_math;
      Flow.task fpga_sp_literals;
      Flow.branch "C" ~select:select_c
        [
          ( "arria10",
            Flow.seq
              [ Flow.task (unroll_dse "arria10" "A10"); Flow.task finalize ] );
          ( "stratix10",
            Flow.seq
              [
                Flow.task zero_copy;
                Flow.task (unroll_dse "stratix10" "S10");
                Flow.task finalize;
              ] );
        ];
    ]

(** The complete PSA-flow.  Branch point A's strategy is parameterised:
    [Strategy.fig3] gives the informed flow, [Flow.select_all] the
    uninformed one.  B and C default to selecting both devices, as in the
    paper's implementation.  [label_a] names the plugged-in strategy in
    the decision provenance ([psaflow explain]). *)
let flow ?(select_a = Strategy.fig3) ?(label_a = "fig3")
    ?(select_b = Flow.select_all) ?(select_c = Flow.select_all) () =
  Flow.seq
    [
      target_independent;
      Flow.branch "A" ~strategy_label:label_a
        ~evidence:Strategy.branch_a_evidence ~select:select_a
        [
          ("cpu", cpu_path);
          ("gpu", gpu_path ~select_b);
          ("fpga", fpga_path ~select_c);
        ];
    ]

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  contexts : Context.t list;
  results : Devices.Simulate.result list;
  log : string list;
}

let run_flow flow ctx =
  let contexts = Flow.run flow ctx in
  {
    contexts;
    results = Context.collect_results contexts;
    log = Context.collect_logs contexts;
  }

(** Informed mode: branch point A runs the Fig. 3 PSA strategy.  With a
    budget on the context, over-budget outcomes feed back and the
    decision is revised to the next-best in-budget target (Fig. 3's
    feedback edge). *)
let run_informed ?(x_threshold = 2.0) ?budget ctx =
  let ctx = { ctx with Context.x_threshold; budget } in
  let outcome = run_flow (flow ()) ctx in
  match budget with
  | None -> outcome
  | Some b ->
      let over r = Cost.of_result r > b in
      if outcome.results <> [] && List.for_all over outcome.results then
        (* feedback: revise the mapping decision, try remaining targets *)
        let tried =
          List.map
            (fun (r : Devices.Simulate.result) ->
              match r.design.target with
              | Codegen.Design.Cpu_openmp -> "cpu"
              | Codegen.Design.Gpu_hip -> "gpu"
              | Codegen.Design.Fpga_oneapi -> "fpga")
            outcome.results
        in
        let remaining =
          List.filter (fun p -> not (List.mem p tried)) [ "cpu"; "gpu"; "fpga" ]
        in
        let revised =
          run_flow
            (flow
               ~select_a:(fun _ -> Flow.Paths remaining)
               ~label_a:"budget-feedback" ())
            (Context.log "budget feedback: revising mapping decision" ctx)
        in
        let in_budget =
          List.filter (fun r -> not (over r)) revised.results
        in
        {
          revised with
          results =
            (if in_budget = [] then outcome.results @ revised.results
             else in_budget);
        }
      else outcome

(** Uninformed mode: all paths at branch point A — generates all five
    designs. *)
let run_uninformed ?(x_threshold = 2.0) ctx =
  run_flow (flow ~select_a:Flow.select_all ()) { ctx with Context.x_threshold }

(** The repository listing (Fig. 4's left column). *)
let repository_tasks =
  [
    ("T-INDEP", identify_hotspot);
    ("T-INDEP", extract_hotspot);
    ("T-INDEP", pointer_analysis);
    ("T-INDEP", intensity_analysis);
    ("T-INDEP", data_inout_analysis);
    ("T-INDEP", dependence_analysis);
    ("T-INDEP", trip_count_analysis);
    ("T-INDEP", remove_array_dependency);
    ("FPGA", generate_oneapi);
    ("FPGA", unroll_fixed);
    ("FPGA", fpga_sp_math);
    ("FPGA", fpga_sp_literals);
    ("FPGA-A10", unroll_dse "arria10" "A10");
    ("FPGA-S10", zero_copy);
    ("FPGA-S10", unroll_dse "stratix10" "S10");
    ("GPU", generate_hip);
    ("GPU", pinned_memory);
    ("GPU", gpu_sp_math);
    ("GPU", gpu_sp_literals);
    ("GPU", shared_mem);
    ("GPU", specialised_math);
    ("GPU-1080", blocksize_dse "gtx1080ti" "GTX 1080");
    ("GPU-2080", blocksize_dse "rtx2080ti" "RTX 2080");
    ("CPU-OMP", generate_openmp);
    ("CPU-OMP", omp_threads_dse);
  ]
